package replay_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/workload"
)

// ExampleRun replays four days of the synthetic ensemble through a
// SieveStore-D store whose clock follows trace time, so its epochs rotate
// at midnight as in the paper, and prints a Figure 5-style day table. The
// blocks a day's log selects move in at the next midnight and serve hits
// from then on; moves are SieveStore-D's only allocation-writes.
func ExampleRun() {
	const scale = 65536
	cfg := workload.Default(scale)
	cfg.Days = 4
	gen, err := workload.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	clk := replay.NewClock(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	st, err := core.Open(replay.BuildBackend(cfg), core.Options{
		CacheBytes: 16 << 30 / scale, // the paper's 16 GB at this scale
		Variant:    core.VariantD,
		Epoch:      24 * time.Hour,
		Now:        clk.Now,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	reports, err := replay.Run(st, gen, clk, replay.Options{RotateDaily: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %9s %9s %6s %7s\n", "day", "requests", "blocks", "hit%", "moves")
	for _, r := range reports {
		fmt.Printf("%-4d %9d %9d %6.2f %7d\n", r.Day, r.Requests, r.Accesses, 100*r.HitRatio(), r.Moves)
	}
	// Output:
	// day   requests    blocks   hit%   moves
	// 0         2287     18423   0.00      52
	// 1         7836     61505   2.03     460
	// 2         8547     66938  13.99     119
	// 3         8377     65960  14.95      82
}
