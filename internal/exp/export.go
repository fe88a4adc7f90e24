package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ssd"
)

// This file exports the figure data as CSV series (one file per figure) so
// the plots can be regenerated with any plotting tool, and computes the §7
// scaling projection and §3.3 network feasibility check.

// csvFiles is every figure's CSV file: its name, header line and rows.
var csvFiles = []struct {
	name, header string
	rows         func(*Results, io.Writer)
}{
	{"fig2a_access_counts.csv", "day,upper_percentile,avg_count,max_count", func(r *Results, w io.Writer) {
		for _, di := range r.DayInfo {
			for _, bin := range di.Bins {
				fmt.Fprintf(w, "%d,%.6f,%.4f,%d\n", di.Day, bin.UpperPercentile, bin.AvgCount, bin.MaxCount)
			}
		}
	}},
	{"fig2bc_cdf.csv", "day,percentile,cum_fraction", func(r *Results, w io.Writer) {
		for _, di := range r.DayInfo {
			for _, p := range di.CDF {
				fmt.Fprintf(w, "%d,%.6f,%.6f\n", di.Day, p.Percentile, p.CumFraction)
			}
		}
	}},
	{"fig3d_composition.csv", "day,server,share", func(r *Results, w io.Writer) {
		for _, di := range r.DayInfo {
			for s, share := range di.Composition {
				fmt.Fprintf(w, "%d,%s,%.6f\n", di.Day, r.ServerNames[s], share)
			}
		}
	}},
	{"fig5_captured.csv", "day,policy,hit_ratio,read_hits,write_hits", func(r *Results, w io.Writer) {
		for p := 0; p < numPolicies; p++ {
			for _, d := range r.Policies[p].Days {
				fmt.Fprintf(w, "%d,%s,%.6f,%d,%d\n", d.Day, PolicyName(p), d.HitRatio(), d.ReadHits, d.WriteHits)
			}
		}
	}},
	{"fig6_alloc_writes.csv", "day,policy,alloc_writes,moves", func(r *Results, w io.Writer) {
		for p := 0; p < numPolicies; p++ {
			for _, d := range r.Policies[p].Days {
				fmt.Fprintf(w, "%d,%s,%d,%d\n", d.Day, PolicyName(p), d.AllocWrites, d.Moves)
			}
		}
	}},
	{"fig7_ssd_ops.csv", "day,policy,read_hits,write_hits,alloc_writes", func(r *Results, w io.Writer) {
		for _, p := range []int{PSieveD, PSieveC, PWMNA32, PAOD32} {
			for _, d := range r.Policies[p].Days {
				fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", d.Day, PolicyName(p), d.ReadHits, d.WriteHits, d.AllocWrites+d.Moves)
			}
		}
	}},
	// Paper-scale occupancy; idle minutes are skipped to keep the file
	// tractable.
	{"fig8_occupancy.csv", "minute,policy,occupancy", func(r *Results, w io.Writer) {
		spec := Device()
		for _, p := range []int{PSieveD, PSieveC, PWMNA32} {
			for m, o := range ssd.OccupancySeries(&spec, r.paperLoads(p)) {
				if o > 0 {
					fmt.Fprintf(w, "%d,%s,%.6f\n", m, PolicyName(p), o)
				}
			}
		}
	}},
	// Drives needed by minute, sorted ascending.
	{"fig9_drives.csv", "policy,minute_rank,drives", func(r *Results, w io.Writer) {
		spec := Device()
		for _, p := range []int{PSieveD, PSieveC, PWMNA, PWMNA32} {
			for rank, d := range ssd.DrivesNeeded(&spec, r.paperLoads(p)) {
				fmt.Fprintf(w, "%s,%d,%d\n", PolicyName(p), rank, d)
			}
		}
	}},
	{"sec53_perserver.csv", "day,configuration,hit_ratio", func(r *Results, w io.Writer) {
		for d := 0; d < r.Days; d++ {
			fmt.Fprintf(w, "%d,ensemble-shared,%.6f\n", d, r.EnsembleShared[d].HitRatio())
			fmt.Fprintf(w, "%d,perserver-top1,%.6f\n", d, r.PerServerElastic[d].HitRatio())
			fmt.Fprintf(w, "%d,perserver-split,%.6f\n", d, r.PerServerStatic[d].HitRatio())
		}
	}},
}

// ExportCSV writes every figure's data series under dir and returns the
// paths written.
func (r *Results) ExportCSV(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, f := range csvFiles {
		var b strings.Builder
		fmt.Fprintln(&b, f.header)
		f.rows(r, &b)
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return written, err
		}
		written = append(written, path)
	}
	return written, nil
}

// paperLoads returns policy p's minute loads scaled back to paper volume.
func (r *Results) paperLoads(p int) []ssd.MinuteLoad {
	return ssd.ScaleLoads(r.Policies[p].Minutes, float64(r.Config.Workload.Scale))
}

// Scaling computes the §7 scaling projection for a policy: drives needed
// as the ensemble's load grows.
func (r *Results) Scaling(p int, factors []float64) []ssd.ScalingPoint {
	return ssd.ScalingTable(Device(), 1.1, r.paperLoads(p), factors)
}

// Network computes the §3.3 network feasibility check for a policy on the
// paper's 4×GbE node.
func (r *Results) Network(p int) (maxOccupancy, worstCaseSSDFraction float64) {
	net := ssd.FourGigE()
	return ssd.MaxNetworkOccupancy(net, r.paperLoads(p)), net.WorstCaseSSDFraction(Device())
}

// ScalingReport renders the §7 / §3.3 analyses.
func (r *Results) ScalingReport() string {
	var b strings.Builder
	line(&b, "Section 7 scaling projection (SieveStore-C, 99.9%% coverage, 1.1 stripe imbalance):")
	for _, row := range r.Scaling(PSieveC, []float64{1, 2, 4, 8, 16}) {
		line(&b, "  %4.0fx ensemble load → %d drive(s), hottest-drive peak occupancy %.2f",
			row.LoadFactor, row.Drives, row.PeakOccupancy)
	}
	maxOcc, worst := r.Network(PSieveC)
	line(&b, "Section 3.3 network check (4x GbE): peak NIC occupancy %.3f; worst-case", maxOcc)
	line(&b, "  SSD-sequential-stream fraction of node bandwidth: %.2f (paper: ≈0.5)", worst)
	return b.String()
}
