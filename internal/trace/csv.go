package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/block"
)

// The MSR-Cambridge block traces [Narayanan et al., FAST'08] are CSV files
// with the schema
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// where Timestamp and ResponseTime are Windows FILETIME values (100 ns
// ticks; Timestamp is absolute since 1601-01-01, ResponseTime is a
// duration), Hostname is the server key (e.g. "usr", "prxy"), DiskNumber is
// the volume index within the server, Type is "Read" or "Write", and Offset
// and Size are in bytes.
//
// This codec reads and writes that exact schema, so real MSR traces can be
// used in place of the synthetic workload without conversion.

// ticksPerNano converts between FILETIME ticks (100 ns) and nanoseconds.
const nanosPerTick = 100

// NameTable maps server names (the MSR Hostname column) to dense server IDs
// and back. The zero value is ready to use.
type NameTable struct {
	ids   map[string]int
	names []string
}

// NewNameTable returns a table pre-populated with names, assigned IDs in
// order.
func NewNameTable(names ...string) *NameTable {
	t := &NameTable{}
	for _, n := range names {
		t.ID(n)
	}
	return t
}

// ID returns the server ID for name, assigning the next free ID on first
// use.
func (t *NameTable) ID(name string) int {
	if t.ids == nil {
		t.ids = make(map[string]int)
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := len(t.names)
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// Lookup returns the ID for name without assigning a new one.
func (t *NameTable) Lookup(name string) (int, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the server name for id, or a numeric placeholder if unknown.
func (t *NameTable) Name(id int) string {
	if id >= 0 && id < len(t.names) {
		return t.names[id]
	}
	return fmt.Sprintf("server%d", id)
}

// Len returns the number of names in the table.
func (t *NameTable) Len() int { return len(t.names) }

// CSVReader streams an MSR-format CSV trace.
type CSVReader struct {
	s     *bufio.Scanner
	names *NameTable
	// Epoch is the FILETIME tick value treated as time zero. If zero, it is
	// latched from the first record's timestamp rounded down to a midnight
	// boundary is NOT applied — the caller controls alignment. (The
	// synthetic traces written by CSVWriter use epoch 0.)
	epoch   int64
	haveEp  bool
	line    int
	lastErr error
}

// NewCSVReader returns a reader over r. names maps the Hostname column to
// server IDs; pass a shared table when reading several per-server files
// destined for one ensemble. epochTicks is subtracted from every timestamp;
// pass 0 to use absolute tick values as nanoseconds-from-zero directly
// (after the 100 ns→ns conversion).
func NewCSVReader(r io.Reader, names *NameTable, epochTicks int64) *CSVReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), 1024*1024)
	return &CSVReader{s: s, names: names, epoch: epochTicks, haveEp: epochTicks != 0}
}

// Next implements Reader.
func (c *CSVReader) Next() (block.Request, error) {
	if c.lastErr != nil {
		return block.Request{}, c.lastErr
	}
	for {
		if !c.s.Scan() {
			if err := c.s.Err(); err != nil {
				c.lastErr = err
				return block.Request{}, err
			}
			c.lastErr = io.EOF
			return block.Request{}, io.EOF
		}
		c.line++
		line := strings.TrimSpace(c.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := c.parse(line)
		if err != nil {
			c.lastErr = fmt.Errorf("trace: csv line %d: %w", c.line, err)
			return block.Request{}, c.lastErr
		}
		return req, nil
	}
}

func (c *CSVReader) parse(line string) (block.Request, error) {
	var req block.Request
	fields := strings.Split(line, ",")
	if len(fields) != 7 {
		return req, fmt.Errorf("want 7 fields, got %d", len(fields))
	}
	ticks, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return req, fmt.Errorf("timestamp: %w", err)
	}
	disk, err := strconv.Atoi(fields[2])
	if err != nil {
		return req, fmt.Errorf("disk number: %w", err)
	}
	var kind block.Kind
	switch strings.ToLower(fields[3]) {
	case "read", "r":
		kind = block.Read
	case "write", "w":
		kind = block.Write
	default:
		return req, fmt.Errorf("unknown request type %q", fields[3])
	}
	offset, err := strconv.ParseUint(fields[4], 10, 64)
	if err != nil {
		return req, fmt.Errorf("offset: %w", err)
	}
	size, err := strconv.ParseUint(fields[5], 10, 32)
	if err != nil {
		return req, fmt.Errorf("size: %w", err)
	}
	respTicks, err := strconv.ParseInt(fields[6], 10, 64)
	if err != nil {
		return req, fmt.Errorf("response time: %w", err)
	}
	req.Server = c.names.ID(fields[1])
	req.Volume = disk
	req.Kind = kind
	req.Offset = offset
	req.Length = uint32(size)
	req.Duration = respTicks * nanosPerTick
	req.Time = (ticks - c.epoch) * nanosPerTick
	return req, nil
}

// CSVWriter writes requests in the MSR CSV schema.
type CSVWriter struct {
	w     *bufio.Writer
	names *NameTable
	epoch int64 // ticks added to every timestamp
}

// NewCSVWriter returns a writer emitting MSR-format lines to w. names
// provides server names for the Hostname column; epochTicks is added to
// every timestamp so synthetic traces can be given realistic absolute
// FILETIME values (pass 0 for times relative to the trace epoch).
func NewCSVWriter(w io.Writer, names *NameTable, epochTicks int64) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w), names: names, epoch: epochTicks}
}

// Write implements Writer.
func (c *CSVWriter) Write(req block.Request) error {
	_, err := fmt.Fprintf(c.w, "%d,%s,%d,%s,%d,%d,%d\n",
		req.Time/nanosPerTick+c.epoch,
		c.names.Name(req.Server),
		req.Volume,
		req.Kind,
		req.Offset,
		req.Length,
		req.Duration/nanosPerTick)
	return err
}

// Flush flushes buffered output. Call it before closing the underlying
// file.
func (c *CSVWriter) Flush() error { return c.w.Flush() }
