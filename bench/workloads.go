package main

import "repro/internal/core"

// workloadDef is one named workload. opsPerSecond sizes its fixed op
// stream: -seconds × opsPerSecond ops, about -seconds of wall clock on
// wire_* at the commit that added the benchmark. A run measures a fixed
// stream, never a deadline, so a faster program finishes sooner and every
// count it reports repeats.
type workloadDef struct {
	name, why    string
	wire         bool
	opsPerSecond int
	gen          func(seed int64, n int) (*inputs, error)
	tune         func(o *core.Options, spillDir string) // nil: cmd/appliance's defaults
	minHit       float64                                // a full run's hit_ratio must reach this
	// probe times this workload's own layers in isolation, after the probes
	// every workload runs.
	probe func(r *record, def *workloadDef, cfg runConfig, in *inputs) error
}

var workloads = []workloadDef{
	{
		name: "lib_hot",
		why:  "4 KiB Zipf reads over half the cache, core.Store called directly: the hit path alone; wire, sieve and backend are bypassed",
		gen:  genHot, opsPerSecond: 600_000,
		minHit: 0.99, probe: hotProbes,
	},
	{
		name: "lib_trace",
		why:  "MSR-style ensemble trace, working set far larger than the cache, core.Store called directly: miss path, sieve, install, evict and write-through beside reads",
		gen:  genTrace, opsPerSecond: 50_000,
		tune:  func(o *core.Options, _ string) { o.SieveC = traceSieve() },
		probe: sieveProbes,
	},
	{
		name: "wire_trace",
		why:  "the same op stream as lib_trace through client, loopback wire v2, server and store: wire minus lib is the appliance's cost",
		wire: true,
		gen:  genTrace, opsPerSecond: 50_000,
		tune:  func(o *core.Options, _ string) { o.SieveC = traceSieve() },
		probe: sieveProbes,
	},
	{
		name: "wire_epochs",
		why:  "SieveStore-D over the wire with write-back: access logging, eight epoch rotations and flushes; background work that VariantC workloads bypass",
		wire: true,
		gen:  genEpochs, opsPerSecond: 32_000,
		tune: func(o *core.Options, spillDir string) {
			o.Variant, o.DThreshold, o.SpillDir, o.WriteBack = core.VariantD, 10, spillDir, true
		},
		probe: sievedProbes,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
