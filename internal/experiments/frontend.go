package experiments

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/stats"
)

func init() {
	register("T10", "Service tier: goodput, shed rate, and sojourn tail vs. offered load, pool size, and admission policy", runT10)
}

// t10Cell is one point of the T10 sweep.
type t10Cell struct {
	frac   float64 // offered load as a multiple of calibrated pool capacity
	pool   int
	policy frontend.Policy
}

// t10Cells enumerates the sweep: under- and over-saturation, each
// pool size, each admission policy — flat admission is the failing
// baseline the two real policies are judged against.
func t10Cells(o Options) (cells []t10Cell, devices int, users uint64, requests int) {
	pools := []int{16, 64}
	devices, users = 4, 1<<20
	if o.Quick {
		pools, devices, users = []int{8}, 2, 6000
	}
	if o.Devices > 0 {
		devices = o.Devices
	}
	// The coverage walk guarantees every user appears once when the
	// non-hot arrivals (1 - HotFrac = 80%) cover the population; 13/10
	// leaves a 4% margin on top.
	requests = int(users) * 13 / 10
	for _, frac := range []float64{0.5, 2.0} {
		for _, pool := range pools {
			for _, policy := range []frontend.Policy{frontend.AdmitAll, frontend.AdmitToken, frontend.AdmitCoDel} {
				cells = append(cells, t10Cell{frac: frac, pool: pool, policy: policy})
			}
		}
	}
	return cells, devices, users, requests
}

// runT10 drives the frontend service tier through the offered-load x
// pool x admission sweep: every cell multiplexes the full user
// population (2^20 distinct simulated users in full mode) over its
// bounded worker pool against per-device kvell stores on BypassD. At
// half saturation all three policies look alike; at 2x the flat
// baseline's sojourn grows with the backlog while token pacing and
// CoDel shed the excess and keep the admitted tail inside the SLO.
func runT10(o Options) (*Report, error) {
	cells, devices, users, requests := t10Cells(o)
	type point struct {
		offeredK float64
		goodputK float64
		shedPct  float64
		s        stats.Summary
		sloPct   float64
		users    int64
	}
	points, err := trialMap(o, len(cells), func(i int, seed int64) (point, error) {
		c := cells[i]
		fl := frontend.ServiceFleet(c.policy, c.frac, devices, c.pool, users, requests)
		res, _, err := frontend.Run(seed, fl, o.runOptions())
		if err != nil {
			return point{}, err
		}
		return point{
			offeredK: fl.RateOps / 1e3,
			goodputK: res.Goodput() / 1e3,
			shedPct:  res.ShedPct(),
			s:        res.Sojourn().Summarize(),
			sloPct:   res.SLOCompliance(),
			users:    res.UsersServed(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("T10: service tier over %d SSDs (%d users, kvell/bypassd, 200µs SLO)", devices, users)
	notes := []string{
		"offered load is a multiple of the pool's calibrated capacity (190 kops per worker); goodput counts completed requests over the active window, after shedding",
		"the flat 'none' policy is the baseline: at 2.0x it admits everything and its sojourn tail is pure backlog; token pacing sheds at the door for the lowest tail, CoDel sheds at dequeue for the highest goodput still inside the SLO",
		"the largest pool oversubscribes each SSD (the calibration anchor is linear in workers, the device is not): there the token bucket's rate estimate exceeds deliverable capacity and its admitted tail collapses with the backlog, while CoDel keys on measured delay and still holds the SLO — rate-based admission is only as good as its capacity estimate",
		"every cell is one deterministic schedule: per-device generators own every random draw, so the table is byte-identical at any -j and any -workers",
	}
	if o.trials() == 1 {
		tb := stats.NewTable(title,
			"offered (kops)", "pool", "policy", "goodput (kops)", "shed (%)",
			"p50 (µs)", "p99 (µs)", "p999 (µs)", "SLO met (%)", "users")
		for i, c := range cells {
			p := points[i][0]
			tb.AddRow(
				p.offeredK, c.pool, string(c.policy), p.goodputK,
				fmt.Sprintf("%.1f", p.shedPct),
				float64(p.s.P50)/1e3, float64(p.s.P99)/1e3, float64(p.s.P999)/1e3,
				fmt.Sprintf("%.1f", p.sloPct), p.users,
			)
		}
		return &Report{ID: "T10", Title: "frontend service tier", Tables: []*stats.Table{tb},
			Notes: notes}, nil
	}

	tb := stats.NewTable(trialTitle(title, o),
		"offered (kops)", "pool", "policy", "goodput (kops)", "goodput ci95",
		"shed (%)", "p99 (µs)", "p99 ci95", "p99 span (µs)", "SLO met (%)", "slo ci95", "users")
	for i, c := range cells {
		summaries := make([]stats.Summary, len(points[i]))
		var good, shed, slo, served stats.Welford
		for t, p := range points[i] {
			summaries[t] = p.s
			good.Add(p.goodputK)
			shed.Add(p.shedPct)
			slo.Add(p.sloPct)
			served.Add(float64(p.users))
		}
		ts := stats.AggregateSummaries(summaries)
		tb.AddRow(
			points[i][0].offeredK, c.pool, string(c.policy),
			good.Mean(), ciCell(&good, 1),
			fmt.Sprintf("%.1f", shed.Mean()),
			ts.P99.Mean()/1e3, ciCell(&ts.P99, 1e3), spanCell(ts.P99Lo, ts.P99Hi, 1e3),
			fmt.Sprintf("%.1f", slo.Mean()), ciCell(&slo, 1),
			int64(served.Mean()),
		)
	}
	return &Report{ID: "T10", Title: "frontend service tier", Tables: []*stats.Table{tb},
		Notes: append(notes, trialNote(o))}, nil
}
