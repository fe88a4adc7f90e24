package workload

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/trace"
)

// testScale keeps unit tests fast while leaving enough blocks for the
// distributional checks to be meaningful.
const testScale = 8192

func testGen(t *testing.T, scale int) *Generator {
	t.Helper()
	g, err := New(Default(scale))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func countAccesses(t *testing.T, reqs []block.Request) map[block.Key]int {
	t.Helper()
	counts := make(map[block.Key]int)
	var accs []block.Access
	for i := range reqs {
		accs = trace.Expand(accs[:0], &reqs[i])
		for _, a := range accs {
			counts[a.Key]++
		}
	}
	return counts
}

func TestValidate(t *testing.T) {
	good := Default(1024)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"bad start hour", func(c *Config) { c.StartHour = 24 }},
		{"no servers", func(c *Config) { c.Servers = nil }},
		{"zero volumes", func(c *Config) { c.Servers[0].Volumes = 0 }},
		{"zero capacity", func(c *Config) { c.Servers[0].CapacityGB = 0 }},
		{"daily exceeds capacity", func(c *Config) { c.Servers[0].DailyGB = c.Servers[0].CapacityGB + 1 }},
		{"bad write fraction", func(c *Config) { c.Servers[0].WriteFraction = 1.5 }},
		{"bad drift", func(c *Config) { c.Servers[0].HotDrift = -0.1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default(1024)
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	g1 := testGen(t, testScale)
	g2 := testGen(t, testScale)
	d1, err := g1.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g2.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("lengths differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	// Day must also be repeatable on the same generator.
	d1again, err := g1.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1again) != len(d1) || d1again[0] != d1[0] {
		t.Error("Day not repeatable on one generator")
	}
}

func TestDayBoundsAndOrder(t *testing.T) {
	g := testGen(t, testScale)
	for _, d := range []int{0, 1, 7} {
		reqs, err := g.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) == 0 {
			t.Fatalf("day %d empty", d)
		}
		lo := int64(d) * trace.Day
		hi := lo + trace.Day
		prev := int64(0)
		for _, r := range reqs {
			if r.Time < lo || r.Time >= hi {
				t.Fatalf("day %d: request time %d outside [%d,%d)", d, r.Time, lo, hi)
			}
			if r.Time < prev {
				t.Fatal("requests not time-sorted")
			}
			prev = r.Time
		}
	}
	if _, err := g.Day(-1); err == nil {
		t.Error("Day(-1) should fail")
	}
	if _, err := g.Day(8); err == nil {
		t.Error("Day(8) should fail")
	}
}

func TestDay0PartialAndSmaller(t *testing.T) {
	g := testGen(t, testScale)
	d0, err := g.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := g.Day(1)
	if err != nil {
		t.Fatal(err)
	}
	startNS := int64(17) * 3600 * 1e9
	for _, r := range d0 {
		if r.Time < startNS {
			t.Fatalf("day-0 request at %d ns precedes 17:00 start", r.Time)
		}
	}
	if len(d0) >= len(d1)/2 {
		t.Errorf("day 0 (%d requests) should be much smaller than day 1 (%d)", len(d0), len(d1))
	}
}

func TestO1PopularitySkew(t *testing.T) {
	g := testGen(t, testScale)
	reqs, err := g.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	counts := countAccesses(t, reqs)
	total, once, le4, le10 := 0, 0, 0, 0
	all := make([]int, 0, len(counts))
	for _, c := range counts {
		total += c
		all = append(all, c)
		if c == 1 {
			once++
		}
		if c <= 4 {
			le4++
		}
		if c <= 10 {
			le10++
		}
	}
	n := len(all)
	if n < 10000 {
		t.Fatalf("too few unique blocks for a distribution check: %d", n)
	}
	// Top-1% share of accesses.
	sortDesc(all)
	top := all[:n/100]
	topSum := 0
	for _, c := range top {
		topSum += c
	}
	share := float64(topSum) / float64(total)
	if share < 0.12 || share > 0.62 {
		t.Errorf("top-1%% share = %.3f, want within paper range ~[0.14,0.53]", share)
	}
	if f := float64(once) / float64(n); f < 0.35 || f > 0.70 {
		t.Errorf("single-access fraction = %.3f, want ≈0.5", f)
	}
	if f := float64(le4) / float64(n); f < 0.90 {
		t.Errorf("≤4-access fraction = %.3f, want ≈0.97", f)
	}
	if f := float64(le10) / float64(n); f < 0.96 {
		t.Errorf("≤10-access fraction = %.3f, want ≈0.99", f)
	}
	// The hottest blocks must be orders of magnitude above the boundary.
	if all[0] < 100 {
		t.Errorf("hottest block count = %d, want ≫10", all[0])
	}
}

func sortDesc(a []int) {
	sort.Sort(sort.Reverse(sort.IntSlice(a)))
}

func TestO2ServerSkewVariation(t *testing.T) {
	g := testGen(t, testScale)
	reqs, err := g.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	names := g.Names()
	prxyID, _ := names.Lookup("prxy")
	src1ID, _ := names.Lookup("src1")
	share := func(server int) float64 {
		counts := make(map[block.Key]int)
		var accs []block.Access
		total := 0
		for i := range reqs {
			if reqs[i].Server != server {
				continue
			}
			accs = trace.Expand(accs[:0], &reqs[i])
			for _, a := range accs {
				counts[a.Key]++
				total++
			}
		}
		all := make([]int, 0, len(counts))
		for _, c := range counts {
			all = append(all, c)
		}
		sortDesc(all)
		topSum := 0
		for _, c := range all[:max(1, len(all)/100)] {
			topSum += c
		}
		return float64(topSum) / float64(total)
	}
	prxy, src1 := share(prxyID), share(src1ID)
	if prxy < 1.7*src1 {
		t.Errorf("prxy top-1%% share (%.3f) should dwarf src1's (%.3f)", prxy, src1)
	}
	if prxy < 0.18 {
		t.Errorf("prxy top-1%% share = %.3f, want strong skew", prxy)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestO2HotSetDrift(t *testing.T) {
	g := testGen(t, testScale)
	// Compare precomputed hot sets for the usr server between days 2 and 3:
	// substantial overlap, but not identical (O2).
	usr := g.servers[0]
	for _, vs := range usr.volumes {
		h2 := vs.days[2].hot
		h3 := vs.days[3].hot
		in2 := make(map[uint32]bool, len(h2))
		for _, c := range h2 {
			in2[c] = true
		}
		overlap := 0
		for _, c := range h3 {
			if in2[c] {
				overlap++
			}
		}
		f := float64(overlap) / float64(len(h3))
		if f < 0.25 || f > 0.95 {
			t.Errorf("usr hot-set overlap day2→3 = %.2f, want meaningful-but-partial", f)
		}
	}
}

func TestRequestsWithinVolumeCapacity(t *testing.T) {
	g := testGen(t, testScale)
	reqs, err := g.Day(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		s := g.servers[r.Server]
		vs := s.volumes[r.Volume]
		if r.End() > vs.chunks*ChunkBytes {
			t.Fatalf("request %+v exceeds volume capacity %d bytes", r, vs.chunks*ChunkBytes)
		}
	}
}

func TestReadWriteMix(t *testing.T) {
	g := testGen(t, testScale)
	reqs, err := g.Day(1)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, r := range reqs {
		if r.Kind == block.Write {
			writes++
		}
	}
	f := float64(writes) / float64(len(reqs))
	if f < 0.15 || f > 0.40 {
		t.Errorf("write fraction = %.3f, want ≈0.25 (3:1 read:write)", f)
	}
}

func TestReaderStreamsWholeTrace(t *testing.T) {
	cfg := Default(65536)
	cfg.Days = 3
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for d := 0; d < cfg.Days; d++ {
		reqs, err := g.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		want += len(reqs)
	}
	r := g.Reader()
	got := 0
	prevDay := 0
	for {
		req, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := trace.DayOf(req.Time); d < prevDay {
			t.Fatal("reader went backwards across days")
		} else {
			prevDay = d
		}
		got++
	}
	if got != want {
		t.Errorf("reader yielded %d requests, want %d", got, want)
	}
}

func TestNamesMatchRoster(t *testing.T) {
	g := testGen(t, 65536)
	names := g.Names()
	if names.Len() != 13 {
		t.Fatalf("got %d names", names.Len())
	}
	if names.Name(0) != "usr" || names.Name(12) != "wdev" {
		t.Errorf("roster order wrong: %q ... %q", names.Name(0), names.Name(12))
	}
}

func TestScaleGuard(t *testing.T) {
	// An absurd scale must be rejected, not silently produce degenerate
	// volumes.
	cfg := Default(1 << 24)
	if _, err := New(cfg); err == nil {
		t.Error("want error for over-scaled config")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ensemble.json"
	cfg := Default(8192)
	data, err := EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scale != cfg.Scale || loaded.Days != cfg.Days || len(loaded.Servers) != len(cfg.Servers) {
		t.Fatalf("round trip lost fields: %+v", loaded)
	}
	if loaded.Servers[5].Name != "prxy" || loaded.Servers[5].Theta != cfg.Servers[5].Theta {
		t.Errorf("server fields lost: %+v", loaded.Servers[5])
	}
	// The loaded config must generate the identical trace.
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(loaded)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := g1.Day(1)
	d2, _ := g2.Day(1)
	if len(d1) != len(d2) || d1[0] != d2[0] || d1[len(d1)-1] != d2[len(d2)-1] {
		t.Error("loaded config generates a different trace")
	}
}

func TestLoadConfigValidates(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"Scale":0,"Days":8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("invalid config accepted")
	}
	if err := os.WriteFile(bad, []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadConfig(dir + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEncodeConfig(t *testing.T) {
	data, err := EncodeConfig(Default(512))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Error("EncodeConfig produced invalid JSON")
	}
}

// dayStreamGolden is an FNV-64a digest of every field of every request
// Default(2048), seed 1, generates for days 0–3. Reordering equal-time
// requests, or any change to what the generator emits, moves it.
const dayStreamGolden = 0x17cc5cfdb2e4e9e

// TestDayStreamGolden checks the digest with Day's servers on one, two and
// eight workers: the parts must join into the one stream whatever the
// worker count and whichever worker finishes first.
func TestDayStreamGolden(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := testGen(t, 2048)
			h := fnv.New64a()
			var buf [48]byte
			n := 0
			for d := 0; d < 4; d++ {
				reqs, err := g.Day(d)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range reqs {
					b := binary.LittleEndian.AppendUint64(buf[:0], uint64(r.Time))
					b = binary.LittleEndian.AppendUint64(b, uint64(r.Duration))
					b = binary.LittleEndian.AppendUint64(b, uint64(r.Server))
					b = binary.LittleEndian.AppendUint64(b, uint64(r.Volume))
					b = binary.LittleEndian.AppendUint64(b, r.Offset)
					b = binary.LittleEndian.AppendUint32(b, r.Length)
					b = append(b, byte(r.Kind))
					h.Write(b)
				}
				n += len(reqs)
			}
			if got := h.Sum64(); got != dayStreamGolden {
				t.Errorf("days 0–3 of %d requests hash to %#x, want %#x", n, got, uint64(dayStreamGolden))
			}
		})
	}
}

// TestDayCapacityFitsLength: Day sizes each worker's part by its servers'
// estimated requests, day 0's thinned as its accesses are, so on one worker,
// where the part is Day's result, its capacity stays within 1.5× of its
// length on the partial day 0 as on a full day.
func TestDayCapacityFitsLength(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := testGen(t, 2048)
	for d := 0; d < 2; d++ {
		reqs, err := g.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		if 2*cap(reqs) > 3*len(reqs) {
			t.Errorf("day %d: %d requests in a slice of capacity %d, over 1.5×", d, len(reqs), cap(reqs))
		}
	}
}

// BenchmarkGeneratorDay prices trace generation as the benchmark's
// lib_trace setup pays it: Default(2048), seed 1, one calendar day an
// iteration (cycling through the eight), in ns per generated request.
func BenchmarkGeneratorDay(b *testing.B) {
	g, err := New(Default(2048))
	if err != nil {
		b.Fatal(err)
	}
	reqs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day, err := g.Day(i % g.Days())
		if err != nil {
			b.Fatal(err)
		}
		reqs += len(day)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/request")
}
