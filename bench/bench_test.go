package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestStreamsAreSeedDetermined(t *testing.T) {
	for _, name := range []string{"lib_hot", "lib_trace", "wire_epochs"} {
		def := findWorkload(name)
		n := runConfig{seconds: 1, smoke: true}.ops(def)
		hash := func(seed int64) uint64 {
			in, err := def.gen(seed, n)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(in.ops) != n || len(in.warm) == 0 {
				t.Fatalf("%s seed %d: %d measured ops, want %d; %d warm-up ops", name, seed, len(in.ops), n, len(in.warm))
			}
			return streamHash(in.warm, in.ops)
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave streams %x and %x", name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %x", name, a)
		}
	}
}

func TestBlocksVerify(t *testing.T) {
	p := make([]byte, 4096)
	fillBlocks(p, 3, 1, 8192)
	if bad := badBlocks(p, 3, 1, 8192); bad != 0 {
		t.Errorf("fresh blocks: %d bad", bad)
	}
	if bad := badBlocks(p, 3, 1, 8192+512); bad != 8 {
		t.Errorf("blocks read back at the wrong address: %d bad, want 8", bad)
	}
	p[1000] ^= 1
	if bad := badBlocks(p, 3, 1, 8192); bad != 1 {
		t.Errorf("one flipped bit: %d bad, want 1", bad)
	}
}

// Every workload runs once in smoke mode, untraced and traced, so the
// harness cannot rot; smoke runs hold no bounds.
func TestSmoke(t *testing.T) {
	layerOf := map[string][]string{
		"lib_hot":     {"core.hit_ns_per_op", "core.metrics_overhead_ns", "cache.touch_ns"},
		"lib_trace":   {"core.miss_self_ns_per_op", "store.call_us_p50", "sim.run_s", "sieve.should_allocate_ns"},
		"wire_trace":  {"appliance.client_us_p50", "appliance.wire_self_us_p50", "appliance.requests", "appliance.bytes_per_s"},
		"wire_epochs": {"core.rotate_ms_p50", "core.flush_ms_p50", "core.epochs", "sieved.log_request_ns", "sieved.select_ms"},
	}
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			r, err := runWorkload(def, runConfig{seed: 3, seconds: 2, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("untraced: failed=%d violations=%v", r.Failed, r.Violations)
			}
			for _, d := range endToEnd[:declared] {
				// A stream this short may admit nothing, so the two cache
				// ratios may be 0; everything else is never 0.
				v, ok := r.Metrics[d.name]
				if cold := d.name == "hit_ratio" || d.name == "alloc_writes_per_kblock"; !ok || v.Value <= 0 && !cold {
					t.Errorf("untraced: %s = %v (present %t), want > 0", d.name, v.Value, ok)
				}
			}
			if _, ok := r.Metrics["write_p50_us"]; ok == (def.name == "lib_hot") {
				t.Errorf("write_p50_us present = %t", ok)
			}

			r, err = runWorkload(def, runConfig{seed: 3, seconds: 2, smoke: true, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("traced: failed=%d violations=%v", r.Failed, r.Violations)
			}
			want := append([]string{"core.call_us_p50", "core.reads", "trace.overhead_share", "bench.clock_ns"}, layerOf[def.name]...)
			for _, name := range want {
				if v, ok := r.Metrics[name]; !ok || v.Value == 0 {
					t.Errorf("traced: %s = %v (present %t)", name, v.Value, ok)
				}
			}
			if v := r.Metrics["trace.orphan_spans"].Value; v != 0 {
				t.Errorf("traced: %v spans found no op in flight", v)
			}
			if def.name != "wire_epochs" {
				for _, name := range []string{"sieved.select_ms", "core.rotate_ms_p50"} {
					if _, ok := r.Metrics[name]; ok {
						t.Errorf("traced: %s reported outside wire_epochs", name)
					}
				}
			}
			if st, err := os.Stat("out/" + def.name + ".spans.jsonl"); err != nil || st.Size() == 0 {
				t.Errorf("span sample file: %v", err)
			}
		})
	}
}

// BENCHMARK.json is the harness's copy of the catalog in metrics.go and
// workloads.go; the two must not drift apart.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the catalog", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: declared %+v, catalog %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd[:declared])
	same("per_layer", spec.PerLayer, perLayer)
}
