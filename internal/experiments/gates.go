package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/stats"
	"repro/internal/tenants"
)

// A Gate is a tail-latency claim from the evaluation promoted to a
// CI-enforceable statistical test: it re-runs the exact table cells
// the claim is about across independent seeded trials and requires
// the 95% confidence intervals of the two sides to separate — not
// merely the point estimates to order correctly. Gates run in go test
// and make check, so a claim that only holds for a lucky seed fails
// the build.
type Gate struct {
	Name  string
	Claim string
	Run   func(Options) (*GateResult, error)
}

// GateResult carries the verdict plus everything needed to chase a
// failure: the per-trial samples for each side and repro-tool specs
// (see ReproSpec) that replay the worst trial of each side.
type GateResult struct {
	Name    string
	Pass    bool
	Detail  string
	Samples map[string][]float64
	Repro   []string
}

// gateTrials pins the trial count a gate runs at: at least the 5
// independent seeds the claims are stated over, more if the caller
// asked for more.
func gateTrials(o Options) Options {
	if o.Trials < 5 {
		o.Trials = 5
	}
	return o
}

// Gates returns every statistical gate in a stable order.
func Gates() []Gate {
	return []Gate{
		{
			Name:  "t7-arbiter-p99",
			Claim: "WRR victim p99 CI upper bound < flat-RR lower bound (8 hogs, bypassd victim)",
			Run:   gateT7Arbiter,
		},
		{
			Name:  "t8-saturation-knee",
			Claim: "past bypassd's IOPS knee, bypassd p99 CI lower bound > sync upper bound",
			Run:   gateT8Knee,
		},
		{
			Name:  "f6-read-latency",
			Claim: "bypassd 4KB read mean latency CI upper bound < 0.75× sync lower bound",
			Run:   gateF6Latency,
		},
		{
			Name:  "f9-uring-collapse",
			Claim: "io_uring IOPS at 16 threads CI upper bound < its 8-thread lower bound",
			Run:   gateF9Collapse,
		},
	}
}

// GateByName resolves a gate.
func GateByName(name string) (Gate, bool) {
	for _, g := range Gates() {
		if g.Name == name {
			return g, true
		}
	}
	return Gate{}, false
}

// worstTrial returns the index of the largest (hi=true) or smallest
// sample — the trial a failing gate most wants replayed.
func worstTrial(xs []float64, hi bool) int {
	best := 0
	for i, x := range xs {
		if (hi && x > xs[best]) || (!hi && x < xs[best]) {
			best = i
		}
	}
	return best
}

// separated renders the shared verdict detail: side a's upper bound
// against side b's lower bound (after scaling b's bound by factor).
func separated(aName string, a *stats.Welford, bName string, b *stats.Welford, factor float64) (bool, string) {
	up, lo := a.Upper95(), factor*b.Lower95()
	pass := up < lo
	rel := ""
	if factor != 1 {
		rel = fmt.Sprintf("%.2f×", factor)
	}
	return pass, fmt.Sprintf("%s mean %s upper95 %s %s %slower95 %s (%s mean %s) over %d trials",
		aName, stats.Fmt(a.Mean()), stats.Fmt(up), map[bool]string{true: "<", false: ">="}[pass],
		rel, stats.Fmt(lo), bName, stats.Fmt(b.Mean()), a.Count())
}

func gateT7Arbiter(o Options) (*GateResult, error) {
	o = gateTrials(o)
	const hogs = 8
	victimOps, hogOps := t7Ops(o.Quick)
	arbs := []string{"rr", "wrr"}
	pts, err := trialMap(o, len(arbs), func(i int, seed int64) (float64, error) {
		sc := tenants.NoisyNeighbor(arbs[i], hogs, victimOps, hogOps)
		sc.Tenants[0].Engine = core.EngineBypassD
		res, _, err := tenants.Run(seed, sc, o.runOptions())
		if err != nil {
			return 0, err
		}
		return float64(res[0].Sojourn.Summarize().P99) / 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	var rr, wrr stats.Welford
	for _, x := range pts[0] {
		rr.Add(x)
	}
	for _, x := range pts[1] {
		wrr.Add(x)
	}
	pass, detail := separated("wrr p99µs", &wrr, "rr p99µs", &rr, 1)
	return &GateResult{
		Name: "t7-arbiter-p99", Pass: pass, Detail: detail,
		Samples: map[string][]float64{"rr": pts[0], "wrr": pts[1]},
		Repro: []string{
			reproFor(o, "T7", "hogs=8,victim=bypassd,arbiter=wrr", worstTrial(pts[1], true)),
			reproFor(o, "T7", "hogs=8,victim=bypassd,arbiter=rr", worstTrial(pts[0], false)),
		},
	}, nil
}

func gateT8Knee(o Options) (*GateResult, error) {
	o = gateTrials(o)
	frac := t8GateFraction(o.Quick)
	_, opsPer := t8Params(o.Quick)
	const nTenants = 4
	engines := []core.Engine{core.EngineSync, core.EngineBypassD}
	pts, err := trialMap(o, len(engines), func(i int, seed int64) (float64, error) {
		sc := tenants.SLOLoad(engines[i], nTenants, frac*optaneIOPS, opsPer)
		res, _, err := tenants.Run(seed, sc, o.runOptions())
		if err != nil {
			return 0, err
		}
		agg := stats.NewHistogram()
		for _, r := range res {
			agg.Merge(r.Sojourn)
		}
		return float64(agg.Summarize().P99) / 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	var sync, byp stats.Welford
	for _, x := range pts[0] {
		sync.Add(x)
	}
	for _, x := range pts[1] {
		byp.Add(x)
	}
	// Direction flips vs the other gates: bypassd must be WORSE here
	// (it saturates first, §3.4), so sync's upper bound caps below
	// bypassd's lower bound.
	pass, detail := separated("sync p99µs", &sync, "bypassd p99µs", &byp, 1)
	offered := fmt.Sprintf("%.0f", frac*optaneIOPS/1e3)
	return &GateResult{
		Name: "t8-saturation-knee", Pass: pass, Detail: detail,
		Samples: map[string][]float64{"sync": pts[0], "bypassd": pts[1]},
		Repro: []string{
			reproFor(o, "T8", "offered="+offered+",engine=bypassd", worstTrial(pts[1], false)),
			reproFor(o, "T8", "offered="+offered+",engine=sync", worstTrial(pts[0], true)),
		},
	}, nil
}

func gateF6Latency(o Options) (*GateResult, error) {
	o = gateTrials(o)
	engines := []core.Engine{core.EngineSync, core.EngineBypassD}
	pts, err := trialMap(o, len(engines), func(i int, seed int64) (float64, error) {
		res, err := fio.Run(fio.Spec{Env: o.Env, VBAFixedLatency: -1, Seed: seed}, []fio.Group{{
			Name: "m", Engine: engines[i], BS: 4096, Threads: 1,
			OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
		}})
		if err != nil {
			return 0, err
		}
		return res["m"].Lat.Mean().Micros(), nil
	})
	if err != nil {
		return nil, err
	}
	var sync, byp stats.Welford
	for _, x := range pts[0] {
		sync.Add(x)
	}
	for _, x := range pts[1] {
		byp.Add(x)
	}
	pass, detail := separated("bypassd latµs", &byp, "sync latµs", &sync, 0.75)
	return &GateResult{
		Name: "f6-read-latency", Pass: pass, Detail: detail,
		Samples: map[string][]float64{"sync": pts[0], "bypassd": pts[1]},
		Repro: []string{
			reproFor(o, "F6", "block_size=4KB,engine=bypassd", worstTrial(pts[1], true)),
			reproFor(o, "F6", "block_size=4KB,engine=sync", worstTrial(pts[0], false)),
		},
	}, nil
}

func gateF9Collapse(o Options) (*GateResult, error) {
	o = gateTrials(o)
	threads := []int{8, 16}
	ops := f9Ops(o.Quick)
	pts, err := trialMap(o, len(threads), func(i int, seed int64) (float64, error) {
		res, err := fio.Run(fio.Spec{Env: o.Env, VBAFixedLatency: -1, Seed: seed}, []fio.Group{{
			Name: "m", Engine: core.EngineUring, BS: 4096, Threads: threads[i],
			OpsPerThread: ops, FileBytes: 16 << 20,
		}})
		if err != nil {
			return 0, err
		}
		return res["m"].IOPS() / 1000, nil
	})
	if err != nil {
		return nil, err
	}
	var t8, t16 stats.Welford
	for _, x := range pts[0] {
		t8.Add(x)
	}
	for _, x := range pts[1] {
		t16.Add(x)
	}
	pass, detail := separated("16T kIOPS", &t16, "8T kIOPS", &t8, 1)
	return &GateResult{
		Name: "f9-uring-collapse", Pass: pass, Detail: detail,
		Samples: map[string][]float64{"8T": pts[0], "16T": pts[1]},
		Repro: []string{
			reproFor(o, "F9", "threads=16,engine=io_uring", worstTrial(pts[1], true)),
			reproFor(o, "F9", "threads=8,engine=io_uring", worstTrial(pts[0], false)),
		},
	}, nil
}

// reproFor renders the canonical repro spec for one trial of a gate's
// table cell.
func reproFor(o Options, id, match string, trial int) string {
	s := fmt.Sprintf("%s:%s@seed=%d", id, match, o.Seed)
	if trial > 0 {
		s += fmt.Sprintf(",trial=%d", trial)
	}
	if o.Quick {
		return s
	}
	return s + ",full"
}
