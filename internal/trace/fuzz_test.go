package trace

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/block"
)

// FuzzBinaryReader feeds arbitrary bytes to the binary trace decoder: it
// must terminate with io.EOF or an error, never panic, and any decoded
// prefix must re-encode losslessly.
func FuzzBinaryReader(f *testing.F) {
	// Seed with a valid two-record trace and some corruptions.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(randomRequests(1, 2)[0])
	w.Write(randomRequests(1, 2)[1])
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("SVT1"))
	f.Add([]byte("SVT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBinaryReader(bytes.NewReader(data))
		var decoded int
		for {
			req, err := r.Next()
			if err != nil {
				break
			}
			decoded++
			if decoded > 1_000_000 {
				t.Fatal("unbounded decode")
			}
			// Every decoded record must survive re-encoding.
			var out bytes.Buffer
			w := NewBinaryWriter(&out)
			if req.Time >= 0 {
				if err := w.Write(req); err != nil && err != ErrUnsorted {
					t.Fatalf("re-encode failed: %v", err)
				}
			}
		}
	})
}

// FuzzCSVReader feeds arbitrary text to the MSR CSV parser: it must never
// panic, and valid lines must parse into in-range requests.
func FuzzCSVReader(f *testing.F) {
	f.Add("128166372003061629,usr,0,Read,7014609920,24576,41286\n")
	f.Add("1,a,0,Write,0,512,0\n# comment\n\n2,b,1,Read,512,512,9\n")
	f.Add("not,a,trace\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		names := &NameTable{}
		r := NewCSVReader(bytes.NewReader([]byte(data)), names, 0)
		for i := 0; i < 100000; i++ {
			req, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // parse errors are fine; panics are not
			}
			if req.Server < 0 || req.Volume < 0 {
				t.Fatalf("negative identifiers: %+v", req)
			}
		}
	})
}

// timesInput encodes times for FuzzSortByTimeMatchesStable: a width byte,
// then each time as width little-endian bytes.
func timesInput(width int, times ...int64) []byte {
	out := []byte{byte(width - 1)}
	for _, t := range times {
		out = binary.LittleEndian.AppendUint64(out, uint64(t))[:len(out)+width]
	}
	return out
}

// FuzzSortByTimeMatchesStable checks SortByTime against
// slices.SortStableFunc by time: the same records in the same order, ties
// included, and a true result exactly when the input was already in order.
// The first byte picks 1–8 bytes per time, sign-extended, so narrow widths
// give heavy ties and negative times.
func FuzzSortByTimeMatchesStable(f *testing.F) {
	f.Add(timesInput(8))
	f.Add(timesInput(8, 42))
	f.Add(timesInput(8, 2, 1))
	f.Add(timesInput(1, 7, 7, 7, 7, 7))
	f.Add(timesInput(2, 1, 2, 2, 3, 500, 501))
	f.Add(timesInput(2, 501, 500, 3, 2, 2, 1))
	f.Add(timesInput(4, -5, 3, -1_000_000, 0, -5))
	f.Add(timesInput(8, math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, math.MinInt64))
	f.Add(timesInput(6, 1<<47-1, 0, 1<<40, 3, 1<<47-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0]%8) + 1
		var reqs []block.Request
		for b := data[1:]; len(b) >= width; b = b[width:] {
			var raw [8]byte
			copy(raw[:], b[:width])
			shift := 64 - 8*width
			tm := int64(binary.LittleEndian.Uint64(raw[:])<<shift) >> shift
			reqs = append(reqs, block.Request{Time: tm, Offset: uint64(len(reqs))})
		}
		want := slices.Clone(reqs)
		slices.SortStableFunc(want, func(a, b block.Request) int { return cmp.Compare(a.Time, b.Time) })
		inOrder := slices.Equal(want, reqs)
		if got := SortByTime(reqs); got != inOrder {
			t.Errorf("SortByTime reported %v for an input in order = %v", got, inOrder)
		}
		if !slices.Equal(reqs, want) {
			t.Fatalf("SortByTime = %v\nwant %v", reqs, want)
		}
	})
}
