package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenants"
	"repro/internal/workload"
)

func init() {
	register("T7", "Noisy neighbor: victim tail latency vs. bandwidth hogs, arbiter ablation", runT7)
	register("T8", "SLO compliance vs. offered load, shared device (open-loop tenants)", runT8)
}

// optaneIOPS is the device's 4 KiB read saturation point (Fig. 9),
// the denominator for T8's offered-load fractions.
const optaneIOPS = 1.49e6

// t7Ops is the per-tenant arrival count for a T7 cell; shared with
// the statistical gates so a gate's trial re-runs exactly the table
// cell's workload.
func t7Ops(quick bool) (victimOps, hogOps int) {
	if quick {
		return 250, 250
	}
	return 1000, 1000
}

// runT7 pits one latency-sensitive 4 KiB tenant against a growing
// pack of large-block bandwidth hogs under each arbitration policy —
// the sharing evaluation the paper's symmetric fio jobs (Figs. 10/11)
// do not cover. The same seed drives every cell, so the arbiter
// columns are paired: identical arrival processes, different policy.
func runT7(o Options) (*Report, error) {
	hogCounts := []int{1, 4, 8, 16}
	if o.Quick {
		hogCounts = []int{1, 8}
	}
	victimOps, hogOps := t7Ops(o.Quick)
	engines := []core.Engine{core.EngineSync, core.EngineBypassD}
	arbiters := []string{"rr", "wrr", "prio"}
	type cell struct {
		hogs int
		eng  core.Engine
		arb  string
	}
	var cells []cell
	for _, h := range hogCounts {
		for _, e := range engines {
			for _, a := range arbiters {
				cells = append(cells, cell{h, e, a})
			}
		}
	}
	type point struct {
		s          stats.Summary
		compliance float64
		hogMBps    float64
	}
	points, err := trialMap(o, len(cells), func(i int, seed int64) (point, error) {
		c := cells[i]
		sc := tenants.NoisyNeighbor(c.arb, c.hogs, victimOps, hogOps)
		sc.Tenants[0].Engine = c.eng
		res, _, err := tenants.Run(seed, sc, o.runOptions())
		if err != nil {
			return point{}, err
		}
		victim := res[0]
		var hogMBps float64
		for _, r := range res[1:] {
			hogMBps += r.Bandwidth() / 1e6
		}
		return point{
			s:          victim.Sojourn.Summarize(),
			compliance: victim.SLOPct(victim.Tenant.SLO),
			hogMBps:    hogMBps,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	const title = "T7: victim 4KB read sojourn vs. noisy neighbors (open loop, 30µs SLO)"
	notes := []string{
		"flat RR serves every backlogged hog queue between victim grants; weighted-fair and priority arbitration hold the victim's p99 near its uncontended service time until the device itself saturates",
		"the victim's weight-16/priority-0 class rides its BypassD queues via nvme.QoS; the sync victim shares the kernel's single queue-0 class (paper §3.7's delegation has no per-tenant handle there)",
	}
	if o.trials() == 1 {
		tb := stats.NewTable(title,
			"hogs", "victim", "arbiter",
			"p50 (µs)", "p99 (µs)", "p999 (µs)", "SLO met (%)", "hogs (MB/s)")
		for i, c := range cells {
			p := points[i][0]
			tb.AddRow(c.hogs, string(c.eng), c.arb,
				float64(p.s.P50)/1e3, float64(p.s.P99)/1e3, float64(p.s.P999)/1e3,
				fmt.Sprintf("%.1f", p.compliance), p.hogMBps)
		}
		return &Report{ID: "T7", Title: "noisy-neighbor arbitration ablation", Tables: []*stats.Table{tb},
			Notes: notes}, nil
	}

	tb := stats.NewTable(trialTitle(title, o),
		"hogs", "victim", "arbiter",
		"p50 (µs)", "p99 (µs)", "p99 ci95", "p99 span (µs)",
		"p999 (µs)", "p999 span (µs)", "SLO met (%)", "slo ci95", "hogs (MB/s)")
	for i, c := range cells {
		summaries := make([]stats.Summary, len(points[i]))
		var comp, mbps stats.Welford
		for t, p := range points[i] {
			summaries[t] = p.s
			comp.Add(p.compliance)
			mbps.Add(p.hogMBps)
		}
		ts := stats.AggregateSummaries(summaries)
		tb.AddRow(c.hogs, string(c.eng), c.arb,
			ts.P50.Mean()/1e3,
			ts.P99.Mean()/1e3, ciCell(&ts.P99, 1e3), spanCell(ts.P99Lo, ts.P99Hi, 1e3),
			ts.P999.Mean()/1e3, spanCell(ts.P999Lo, ts.P999Hi, 1e3),
			fmt.Sprintf("%.1f", comp.Mean()), ciCell(&comp, 1),
			mbps.Mean())
	}
	return &Report{ID: "T7", Title: "noisy-neighbor arbitration ablation", Tables: []*stats.Table{tb},
		Notes: append(notes, trialNote(o))}, nil
}

// t8Params is the T8 sweep scale, shared with the statistical gates.
func t8Params(quick bool) (fractions []float64, opsPer int) {
	if quick {
		return []float64{0.3, 0.9}, 300
	}
	return []float64{0.2, 0.5, 0.8, 0.95, 1.1}, 1500
}

// t8GateFraction is the offered-load fraction the T8 statistical gate
// runs at: high enough that BypassD (whose IOPS ceiling sits ~12%
// below the raw-LBA engines', §3.4) is past its knee while the sync
// path is not — and always a fraction the mode's table actually
// sweeps, so the gate's repro spec lands on a real row.
func t8GateFraction(quick bool) float64 {
	if quick {
		return 0.9
	}
	return 0.95
}

// runT8 sweeps total offered load across equal tenants and reports
// SLO compliance — the open-loop saturation story: compliance holds
// until the knee, then collapses as queueing delay grows without
// bound.
func runT8(o Options) (*Report, error) {
	fractions, opsPer := t8Params(o.Quick)
	const nTenants = 4
	engines := []core.Engine{core.EngineSync, core.EngineBypassD}
	type cell struct {
		frac float64
		eng  core.Engine
	}
	var cells []cell
	for _, f := range fractions {
		for _, e := range engines {
			cells = append(cells, cell{f, e})
		}
	}
	type point struct {
		achieved   float64
		s          stats.Summary
		compliance float64
	}
	points, err := trialMap(o, len(cells), func(i int, seed int64) (point, error) {
		c := cells[i]
		sc := tenants.SLOLoad(c.eng, nTenants, c.frac*optaneIOPS, opsPer)
		res, _, err := tenants.Run(seed, sc, o.runOptions())
		if err != nil {
			return point{}, err
		}
		var all workload.Served
		for _, r := range res {
			all.Merge(&r.Served)
		}
		return point{
			achieved:   all.Throughput() / 1e3,
			s:          all.Sojourn.Summarize(),
			compliance: 100 * float64(all.SLOMet) / float64(all.Completed),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	const title = "T8: SLO compliance vs. offered load (4 tenants, 4KB reads, 25µs SLO)"
	notes := []string{
		"open-loop arrivals keep offering load past the knee, so past ~95% of the Fig. 9 saturation point the backlog — and p99 — grows with run length instead of plateauing",
		"bypassd's lower per-op latency buys compliance headroom below the knee, but its reads serialize ATS translation before media (§3.4), so its IOPS ceiling sits ~12% under the physical-address kernel path's and its compliance collapses at a lower offered load",
	}
	if o.trials() == 1 {
		tb := stats.NewTable(title,
			"offered (kIOPS)", "engine", "achieved (kIOPS)", "p50 (µs)", "p99 (µs)", "SLO met (%)")
		for i, c := range cells {
			p := points[i][0]
			tb.AddRow(fmt.Sprintf("%.0f", c.frac*optaneIOPS/1e3), string(c.eng),
				p.achieved, float64(p.s.P50)/1e3, float64(p.s.P99)/1e3,
				fmt.Sprintf("%.1f", p.compliance))
		}
		return &Report{ID: "T8", Title: "SLO compliance vs. offered load", Tables: []*stats.Table{tb},
			Notes: notes}, nil
	}

	tb := stats.NewTable(trialTitle(title, o),
		"offered (kIOPS)", "engine", "achieved (kIOPS)", "achieved ci95",
		"p50 (µs)", "p99 (µs)", "p99 ci95", "p99 span (µs)",
		"p999 (µs)", "p999 span (µs)", "SLO met (%)", "slo ci95")
	for i, c := range cells {
		summaries := make([]stats.Summary, len(points[i]))
		var ach, comp stats.Welford
		for t, p := range points[i] {
			summaries[t] = p.s
			ach.Add(p.achieved)
			comp.Add(p.compliance)
		}
		ts := stats.AggregateSummaries(summaries)
		tb.AddRow(fmt.Sprintf("%.0f", c.frac*optaneIOPS/1e3), string(c.eng),
			ach.Mean(), ciCell(&ach, 1),
			ts.P50.Mean()/1e3,
			ts.P99.Mean()/1e3, ciCell(&ts.P99, 1e3), spanCell(ts.P99Lo, ts.P99Hi, 1e3),
			ts.P999.Mean()/1e3, spanCell(ts.P999Lo, ts.P999Hi, 1e3),
			fmt.Sprintf("%.1f", comp.Mean()), ciCell(&comp, 1))
	}
	return &Report{ID: "T8", Title: "SLO compliance vs. offered load", Tables: []*stats.Table{tb},
		Notes: append(notes, trialNote(o))}, nil
}
