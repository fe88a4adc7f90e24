package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"sievestore.core.read_hits", "sievestore_core_read_hits"},
		{"already_legal:name", "already_legal:name"},
		{"9starts.with.digit", "_9starts_with_digit"},
		{"weird-chars/here", "weird_chars_here"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	var prepared int
	r.OnCollect(func() { prepared++ })
	r.Counter("test.reads", func() int64 { return 42 })
	r.Gauge("test.ratio", func() float64 { return 0.5 })

	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	r.Histogram("test.latency", func() HistogramSnapshot { return h.Snapshot() })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if prepared != 1 {
		t.Errorf("prepare hook ran %d times, want 1", prepared)
	}
	for _, want := range []string{
		"# TYPE test_reads counter\ntest_reads 42\n",
		"# TYPE test_ratio gauge\ntest_ratio 0.5\n",
		"# TYPE test_latency histogram\n",
		"test_latency_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Parse the histogram series: buckets must be cumulative and monotone,
	// le values monotone, and +Inf must equal _count.
	var lastCum int64 = -1
	lastLE := -1.0
	var infCount, count int64 = -1, -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "test_latency_bucket{le=\"+Inf\"}") {
			fmt.Sscanf(line, "test_latency_bucket{le=\"+Inf\"} %d", &infCount)
			continue
		}
		if strings.HasPrefix(line, "test_latency_bucket{le=") {
			var le float64
			var c int64
			if _, err := fmt.Sscanf(line, "test_latency_bucket{le=%q} %d", &le, &c); err != nil {
				// Sscanf can't parse %q into float64; split manually.
				parts := strings.SplitN(line, "\"", 3)
				le, _ = strconv.ParseFloat(parts[1], 64)
				fields := strings.Fields(parts[2])
				c, _ = strconv.ParseInt(fields[len(fields)-1], 10, 64)
			}
			if le <= lastLE {
				t.Errorf("le not increasing: %g after %g", le, lastLE)
			}
			if c <= lastCum {
				t.Errorf("bucket counts not cumulative: %d after %d", c, lastCum)
			}
			lastLE, lastCum = le, c
			continue
		}
		if strings.HasPrefix(line, "test_latency_count ") {
			fmt.Sscanf(line, "test_latency_count %d", &count)
		}
	}
	if infCount != 3 || count != 3 {
		t.Errorf("+Inf=%d count=%d, want 3/3", infCount, count)
	}
	if lastCum != 3 {
		t.Errorf("last finite bucket = %d, want 3", lastCum)
	}
}

func TestRegistryJSONStatus(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", func() int64 { return 7 })
	r.Gauge("g", func() float64 { return 1.25 })
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	r.Histogram("lat", func() HistogramSnapshot { return h.Snapshot() })

	status := r.JSONStatus()
	if status["c"].(float64) != 7 || status["g"].(float64) != 1.25 {
		t.Errorf("scalars = %v / %v", status["c"], status["g"])
	}
	hs, ok := status["lat"].(HistogramStatus)
	if !ok {
		t.Fatalf("lat is %T", status["lat"])
	}
	if hs.Count != 100 || hs.MaxNS != (100*time.Microsecond).Nanoseconds() {
		t.Errorf("histogram status = %+v", hs)
	}
	if hs.P50NS < (50*time.Microsecond).Nanoseconds() || hs.P99NS < hs.P50NS {
		t.Errorf("quantiles out of order: %+v", hs)
	}
	// The whole map must survive a round trip through encoding/json.
	b, err := json.Marshal(status)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back["lat"].(map[string]any)["count"].(float64) != 100 {
		t.Errorf("round-tripped count = %v", back["lat"])
	}
}

func TestRegistryNamesAndOverwrite(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", func() int64 { return 1 })
	r.Gauge("a", func() float64 { return 2 })
	r.Histogram("c", func() HistogramSnapshot { return HistogramSnapshot{} })
	status := r.JSONStatus()
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := status[name]; !ok {
			t.Fatalf("status %v lacks %q", status, name)
		}
	}
	// Last registration wins.
	r.Counter("b", func() int64 { return 99 })
	if v := r.JSONStatus()["b"].(float64); v != 99 {
		t.Errorf("re-registered counter = %v", v)
	}
}

func TestRegistryEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty", func() HistogramSnapshot { return HistogramSnapshot{} })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// No finite buckets, but +Inf/_sum/_count must still appear with zeros.
	for _, want := range []string{
		"empty_bucket{le=\"+Inf\"} 0\n", "empty_sum 0\n", "empty_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent registers, collects, and renders concurrently.
// Run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	r.Histogram("lat", func() HistogramSnapshot { return h.Snapshot() })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				name := fmt.Sprintf("worker%d.counter%d", w, i%8)
				v := int64(i)
				r.Counter(name, func() int64 { return v })
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		_ = r.JSONStatus()
	}
	close(stop)
	wg.Wait()
}
