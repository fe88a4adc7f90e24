package trace

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/block"
)

func randomRequests(seed int64, n int) []block.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]block.Request, n)
	tm := int64(0)
	for i := range reqs {
		tm += int64(rng.Intn(1_000_000)) * 100 // multiples of a FILETIME tick
		kind := block.Read
		if rng.Intn(4) == 0 {
			kind = block.Write
		}
		reqs[i] = block.Request{
			Time:     tm,
			Duration: int64(rng.Intn(10_000)) * 100,
			Server:   rng.Intn(13),
			Volume:   rng.Intn(5),
			Kind:     kind,
			Offset:   uint64(rng.Intn(1 << 30)),
			Length:   uint32((rng.Intn(64) + 1) * 512),
		}
	}
	return reqs
}

func TestBinaryRoundTrip(t *testing.T) {
	reqs := randomRequests(1, 500)
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d records, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBinaryReader(&buf))
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace: %v %v", got, err)
	}
}

func TestBinaryRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(block.Request{Time: 100}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(block.Request{Time: 50}); err != ErrUnsorted {
		t.Errorf("want ErrUnsorted, got %v", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("NOPE...."))
	if _, err := r.Next(); err != ErrBadMagic {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	reqs := randomRequests(2, 10)
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := NewBinaryReader(bytes.NewReader(data[:len(data)-3]))
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("truncated trace reported clean EOF")
		}
		if err != nil {
			break // truncation error expected
		}
		n++
	}
	if n == 0 || n >= len(reqs) {
		t.Errorf("read %d records from truncated trace of %d", n, len(reqs))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	reqs := randomRequests(3, 200)
	names := NewNameTable("usr", "proj", "prn", "hm", "rsrch", "prxy", "src1", "src2", "stg", "ts", "web", "mds", "wdev")
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, names, 0)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewCSVReader(&buf, names, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d records, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
}

func TestCSVEpochOffset(t *testing.T) {
	// Writing with an epoch and reading with the same epoch must round-trip.
	const epoch = int64(128166372003061629) // an arbitrary FILETIME
	names := NewNameTable("web")
	r := block.Request{Time: 12345 * 100, Server: 0, Volume: 1, Kind: block.Write, Offset: 4096, Length: 8192, Duration: 100}
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, names, epoch)
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewCSVReader(&buf, names, epoch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != r {
		t.Errorf("got %+v, want %+v", got, r)
	}
}

func TestCSVParsesMSRStyleLines(t *testing.T) {
	in := strings.Join([]string{
		"# comment line",
		"128166372003061629,usr,0,Read,7014609920,24576,41286",
		"",
		"128166372016382155,prxy,1,Write,2311542784,4096,796",
	}, "\n")
	names := &NameTable{}
	got, err := Collect(NewCSVReader(strings.NewReader(in), names, 128166372003061629))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].Time != 0 || got[0].Kind != block.Read || got[0].Length != 24576 || got[0].Duration != 41286*100 {
		t.Errorf("rec0 = %+v", got[0])
	}
	if got[1].Server != names.ids["prxy"] || got[1].Volume != 1 || got[1].Kind != block.Write {
		t.Errorf("rec1 = %+v", got[1])
	}
	if got[1].Time != (128166372016382155-128166372003061629)*100 {
		t.Errorf("rec1 time = %d", got[1].Time)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"too few fields", "1,usr,0,Read,0,512"},
		{"bad timestamp", "x,usr,0,Read,0,512,0"},
		{"bad disk", "1,usr,x,Read,0,512,0"},
		{"bad type", "1,usr,0,Frob,0,512,0"},
		{"bad offset", "1,usr,0,Read,-1,512,0"},
		{"bad size", "1,usr,0,Read,0,x,0"},
		{"bad response", "1,usr,0,Read,0,512,x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewCSVReader(strings.NewReader(c.line), &NameTable{}, 0)
			if _, err := r.Next(); err == nil || err == io.EOF {
				t.Errorf("want parse error, got %v", err)
			}
		})
	}
}

func TestNameTable(t *testing.T) {
	nt := &NameTable{}
	a := nt.ID("alpha")
	b := nt.ID("beta")
	if a == b || nt.ID("alpha") != a {
		t.Error("ID not stable")
	}
	if got, ok := nt.Lookup("beta"); !ok || got != b {
		t.Error("Lookup failed")
	}
	if _, ok := nt.Lookup("gamma"); ok {
		t.Error("Lookup invented a name")
	}
	if nt.Name(a) != "alpha" || nt.Name(99) != "server99" {
		t.Error("Name wrong")
	}
	if nt.Len() != 2 {
		t.Error("Len wrong")
	}
}

// failWriter errors after n bytes.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestBinaryWriterSurfacesIOErrors(t *testing.T) {
	w := NewBinaryWriter(&failWriter{left: 2})
	// Either the magic write or the record write must fail; small bufio
	// buffers defer errors to Flush at the latest.
	err := w.Write(block.Request{Time: 1, Length: 512})
	if err == nil {
		err = w.Flush()
	}
	// Flood enough data to overflow the 64 KiB bufio buffer if nothing
	// failed yet.
	for i := 0; err == nil && i < 100000; i++ {
		err = w.Write(block.Request{Time: int64(i + 2), Length: 512})
	}
	if err == nil {
		t.Error("I/O error never surfaced")
	}
}

func TestCSVWriterSurfacesIOErrors(t *testing.T) {
	names := NewNameTable("usr")
	w := NewCSVWriter(&failWriter{left: 10}, names, 0)
	var err error
	for i := 0; err == nil && i < 100000; i++ {
		err = w.Write(block.Request{Time: int64(i), Length: 512})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		t.Error("I/O error never surfaced")
	}
}
