package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/block"
)

// This file implements on-disk, day-partitioned traces: a whole-trace
// stream (e.g. a real MSR-Cambridge CSV download, or cmd/trace output) is
// split into one compact binary file per calendar day, and the resulting
// directory can then be opened as a day-addressable trace for the
// simulator — the experiment harness replays traces day by day, and
// keeping days in separate files bounds memory for arbitrarily large
// traces.

// dayFileName returns the file name for calendar day d.
func dayFileName(d int) string { return fmt.Sprintf("day-%03d.trace", d) }

// SplitByDay drains a (time-ordered) request stream into per-day binary
// trace files under dir, creating it if needed. It returns the number of
// days written. Empty days get no file; OpenDayDir treats them as empty.
// A dir that already holds day files is refused and left as it is.
func SplitByDay(r Reader, dir string) (days int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	if _, err := OpenDayDir(dir); err == nil {
		return 0, fmt.Errorf("trace: %s already holds day files", dir)
	}
	var (
		cur     *os.File
		w       *BinaryWriter
		curDay  = -1
		closeAl = func() error {
			if cur == nil {
				return nil
			}
			if err := w.Flush(); err != nil {
				cur.Close()
				return err
			}
			err := cur.Close()
			cur, w = nil, nil
			return err
		}
	)
	defer closeAl()
	for {
		req, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		d := DayOf(req.Time)
		if d != curDay {
			if d < curDay {
				return 0, ErrUnsorted
			}
			if err := closeAl(); err != nil {
				return 0, err
			}
			f, err := os.Create(filepath.Join(dir, dayFileName(d)))
			if err != nil {
				return 0, fmt.Errorf("trace: %w", err)
			}
			cur, w = f, NewBinaryWriter(f)
			curDay = d
		}
		if err := w.Write(req); err != nil {
			return 0, err
		}
	}
	if err := closeAl(); err != nil {
		return 0, err
	}
	return curDay + 1, nil
}

// DayDir is a day-partitioned on-disk trace. It satisfies the simulator's
// Trace interface (Days/Day).
type DayDir struct {
	dir  string
	days int
}

// OpenDayDir scans dir for day files and returns the trace. The day count
// is one past the highest day file present.
func OpenDayDir(dir string) (*DayDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	maxDay := -1
	for _, e := range entries {
		var d int
		if _, err := fmt.Sscanf(e.Name(), "day-%d.trace", &d); err == nil {
			maxDay = max(maxDay, d)
		}
	}
	if maxDay < 0 {
		return nil, fmt.Errorf("trace: no day files in %s", dir)
	}
	return &DayDir{dir: dir, days: maxDay + 1}, nil
}

// Days returns the trace length in calendar days.
func (dd *DayDir) Days() int { return dd.days }

// Day loads day d's requests. Missing day files yield an empty day.
func (dd *DayDir) Day(d int) ([]block.Request, error) {
	if d < 0 || d >= dd.days {
		return nil, fmt.Errorf("trace: day %d out of range [0,%d)", d, dd.days)
	}
	f, err := os.Open(filepath.Join(dd.dir, dayFileName(d)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return Collect(NewBinaryReader(f))
}

// Reader returns a whole-trace Reader over all days in order.
func (dd *DayDir) Reader() Reader { return DayReader(dd.days, dd.Day) }

// DayReader returns a Reader over days 0…days-1 of a day-addressable trace,
// fetching each day from day once the previous one is drained. An error
// from day ends the stream: Next returns it from then on.
func DayReader(days int, day func(d int) ([]block.Request, error)) Reader {
	return &dayReader{days: days, day: day}
}

type dayReader struct {
	days, next int
	day        func(int) ([]block.Request, error)
	cur        []block.Request
	err        error
}

func (r *dayReader) Next() (block.Request, error) {
	for len(r.cur) == 0 && r.err == nil {
		if r.next >= r.days {
			r.err = io.EOF
		} else if r.cur, r.err = r.day(r.next); r.err == nil {
			r.next++
		}
	}
	if r.err != nil {
		return block.Request{}, r.err
	}
	req := r.cur[0]
	r.cur = r.cur[1:]
	return req, nil
}

// SortDayFiles re-sorts every day file by time — useful after merging
// several per-server traces whose per-day interleavings are unordered.
func (dd *DayDir) SortDayFiles() error {
	for d := 0; d < dd.days; d++ {
		reqs, err := dd.Day(d)
		if err != nil {
			return err
		}
		if SortByTime(reqs) {
			continue
		}
		f, err := os.Create(filepath.Join(dd.dir, dayFileName(d)))
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		w := NewBinaryWriter(f)
		for i := range reqs {
			if err := w.Write(reqs[i]); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
