package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/tenants"
)

func init() {
	register("T9", "Scale-out: aggregate IOPS and victim tail vs. device count (multi-SSD topology)", runT9)
}

// t9Counts is the device-count ladder a T9 run sweeps.
func t9Counts(o Options) []int {
	if o.Devices > 0 {
		return []int{o.Devices}
	}
	if o.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}

// t9Ops is the per-tenant arrival count for a T9 cell.
func t9Ops(quick bool) (victimOps, hogOps int) {
	if quick {
		return 250, 250
	}
	return 1000, 1000
}

// runT9 grows the machine from one SSD to eight, keeping the offered
// load per device fixed (one 4 KiB victim + one 64 KiB hog each, the
// T7 pairing) — weak scaling. The fleet shares one IOMMU and the host
// cores; queues, arbitration, and media are per-device, so aggregate
// throughput should track the device count while each victim's p99
// stays where the single-device machine put it. Every cell runs on
// the same seed, so the device-count rows are paired: identical
// per-tenant arrival processes, more devices.
func runT9(o Options) (*Report, error) {
	counts := t9Counts(o)
	victimOps, hogOps := t9Ops(o.Quick)
	type point struct {
		aggKIOPS float64
		aggMBps  float64
		s        stats.Summary // merged victim sojourn
		comp     float64       // victim SLO compliance
	}
	points, err := trialMap(o, len(counts), func(i int, seed int64) (point, error) {
		devices := counts[i]
		sc := tenants.ScaleOut(devices, victimOps, hogOps)
		res, _, err := tenants.Run(seed, sc, o.runOptions())
		if err != nil {
			return point{}, err
		}
		var ops, bytes int64
		start, end := res[0].Start, res[0].End
		victims := stats.NewHistogram()
		var met, vops int64
		for ti, r := range res {
			ops += r.Ops
			bytes += r.Bytes
			if r.Start < start {
				start = r.Start
			}
			if r.End > end {
				end = r.End
			}
			if ti < devices { // victims come first in ScaleOut order
				victims.Merge(r.Sojourn)
				met += r.Compliant
				vops += r.Ops
			}
		}
		return point{
			aggKIOPS: stats.Throughput(ops, end-start) / 1e3,
			aggMBps:  stats.BytesPerSec(bytes, end-start) / 1e6,
			s:        victims.Summarize(),
			comp:     100 * float64(met) / float64(vops),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	const title = "T9: weak scaling across SSDs (victim+hog per device, wrr, 30µs victim SLO)"
	notes := []string{
		"per-device offered load is constant, so aggregate IOPS tracking the device count is the pass condition: the shared IOMMU and host cores are not the bottleneck at this scale",
		"each device's event stream runs on its own simulator shard merged by the global (at, seq) key, so the 8-device cell replays byte-for-byte at any host parallelism",
	}
	if o.trials() == 1 {
		tb := stats.NewTable(title,
			"devices", "tenants", "agg (kIOPS)", "agg (MB/s)", "speedup",
			"victim p50 (µs)", "victim p99 (µs)", "SLO met (%)")
		base := points[0][0].aggKIOPS
		for i, d := range counts {
			p := points[i][0]
			speedup := "-"
			if counts[0] == 1 && base > 0 {
				speedup = fmt.Sprintf("%.2fx", p.aggKIOPS/base)
			}
			tb.AddRow(d, 2*d, p.aggKIOPS, p.aggMBps, speedup,
				float64(p.s.P50)/1e3, float64(p.s.P99)/1e3,
				fmt.Sprintf("%.1f", p.comp))
		}
		return &Report{ID: "T9", Title: "multi-SSD scale-out", Tables: []*stats.Table{tb},
			Notes: notes}, nil
	}

	tb := stats.NewTable(trialTitle(title, o),
		"devices", "tenants", "agg (kIOPS)", "agg ci95", "speedup",
		"victim p50 (µs)", "victim p99 (µs)", "p99 ci95", "p99 span (µs)", "SLO met (%)", "slo ci95")
	var base float64
	for i, d := range counts {
		summaries := make([]stats.Summary, len(points[i]))
		var agg, comp stats.Welford
		for t, p := range points[i] {
			summaries[t] = p.s
			agg.Add(p.aggKIOPS)
			comp.Add(p.comp)
		}
		if i == 0 {
			base = agg.Mean()
		}
		ts := stats.AggregateSummaries(summaries)
		speedup := "-"
		if counts[0] == 1 && base > 0 {
			speedup = fmt.Sprintf("%.2fx", agg.Mean()/base)
		}
		tb.AddRow(d, 2*d, agg.Mean(), ciCell(&agg, 1), speedup,
			ts.P50.Mean()/1e3,
			ts.P99.Mean()/1e3, ciCell(&ts.P99, 1e3), spanCell(ts.P99Lo, ts.P99Hi, 1e3),
			fmt.Sprintf("%.1f", comp.Mean()), ciCell(&comp, 1))
	}
	return &Report{ID: "T9", Title: "multi-SSD scale-out", Tables: []*stats.Table{tb},
		Notes: append(notes, trialNote(o))}, nil
}
