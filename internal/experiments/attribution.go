package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("T6", "Latency attribution by interface: submit/translate/media/complete (Fig. 5 analogue)", runT6)
}

// runT6 reproduces the paper's Fig. 5-style attribution: where does a
// 4KB random read's latency go on each interface? Every cell runs
// with tracing forced on for its own machine, so the table is
// identical whether or not the run environment traces. The
// phase sums are cross-checked against the end-to-end latency
// histogram: per-interface, the attributed mean must match the
// measured mean within 1%.
func runT6(o Options) (*Report, error) {
	type iface struct {
		display string
		engine  core.Engine // "" marks the XRP cell (custom harness)
	}
	cells := []iface{
		{"BypassD", core.EngineBypassD},
		{"BIO", core.EngineSync},
		{"AIO", core.EngineLibaio},
		{"SPDK", core.EngineSPDK},
		{"XRP", ""},
	}
	ops := microOps(o.Quick)
	results, err := sweepMap(o, len(cells), func(i int) (t6Result, error) {
		c := cells[i]
		if c.engine == "" {
			return runT6XRP(o, ops)
		}
		res, err := fio.Run(fio.Spec{Env: o.Env, VBAFixedLatency: -1, Seed: o.Seed, Trace: true}, []fio.Group{{
			Name: "m", Engine: c.engine, BS: 4096, Threads: 1,
			OpsPerThread: ops, FileBytes: 64 << 20,
		}})
		if err != nil {
			return t6Result{}, fmt.Errorf("T6 %s: %w", c.display, err)
		}
		r := res["m"]
		if r.Phases == nil {
			return t6Result{}, fmt.Errorf("T6 %s: no attribution collected", c.display)
		}
		return t6Result{attr: *r.Phases, mean: r.Lat.Mean()}, nil
	})
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("Fig. 5 analogue: 4KB random read latency attribution per interface",
		"interface", "submit (µs)", "translate (µs)", "media (µs)", "complete (µs)", "total (µs)", "e2e mean (µs)")
	for i, c := range cells {
		r := results[i]
		a := r.attr
		if a.Ops == 0 {
			return nil, fmt.Errorf("T6 %s: attribution recorded no operations", c.display)
		}
		n := sim.Time(a.Ops)
		attrMean := a.Total() / n
		// Acceptance check: the phase partition must account for the
		// end-to-end histogram within 1% per interface.
		if diff := math.Abs(float64(attrMean) - float64(r.mean)); diff > 0.01*float64(r.mean) {
			return nil, fmt.Errorf("T6 %s: attributed mean %v diverges from measured mean %v by more than 1%%",
				c.display, attrMean, r.mean)
		}
		tb.AddRow(c.display,
			(a.Submit / n).Micros(),
			(a.Translate / n).Micros(),
			(a.Media / n).Micros(),
			(a.Complete / n).Micros(),
			attrMean.Micros(),
			r.mean.Micros())
	}
	return &Report{ID: "T6", Title: "latency attribution", Tables: []*stats.Table{tb},
		Notes: []string{
			"submit = request build + queueing residual; translate = address translation on the device path",
			"bypassd translation overlaps DMA on writes and rides the IOTLB on reads, so its translate share stays small",
			"attributed totals are cross-checked against the e2e histogram mean (must agree within 1%)",
		}}, nil
}

// t6Result is one interface's attribution plus its measured mean.
type t6Result struct {
	attr trace.Attribution
	mean sim.Time
}

// runT6XRP measures the XRP baseline with a hand-rolled harness: the
// FileIO interface doesn't expose chained reads, so the cell drives
// Process.XRPChain directly with single-step chains (a plain 4KB read
// through the XRP resubmission interface).
func runT6XRP(o Options, ops int) (t6Result, error) {
	const fileBytes = 64 << 20
	sys, err := core.Boot(o.Env, 256<<20, 1)
	if err != nil {
		return t6Result{}, err
	}
	defer sys.Close()
	if sys.M.Trace == nil {
		sys.M.EnableTrace(trace.NewTracer("xrp"))
	}
	tr := sys.M.Trace

	lat := stats.NewHistogram()
	var runErr error
	sys.Sim.Spawn("t6-xrp", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/xrp", 0o666)
		if err != nil {
			runErr = err
			return
		}
		if err := pr.Fallocate(p, fd, fileBytes); err != nil {
			runErr = err
			return
		}
		if err := pr.Sync(p); err != nil {
			runErr = err
			return
		}
		rng := rand.New(rand.NewSource(o.Seed*7919 + 9973))
		buf := make([]byte, 4096)
		blocks := int64(fileBytes / 4096)
		for op := 0; op < ops; op++ {
			off := rng.Int63n(blocks) * 4096
			t0 := p.Now()
			sp := tr.StartIO(p, "xrp", "read")
			p.SetTraceCtx(sp)
			_, err := pr.XRPChain(p, fd, off, 4096, buf,
				func(step int, b []byte) (int64, int64, bool) { return 0, 0, true })
			p.SetTraceCtx(nil)
			sp.Finish(p.Now())
			if err != nil {
				runErr = err
				return
			}
			lat.Add(p.Now() - t0)
		}
		if err := pr.Close(p, fd); err != nil {
			runErr = err
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		return t6Result{}, fmt.Errorf("T6 XRP: %w", runErr)
	}
	a := tr.Attribution("xrp")
	if a == nil {
		return t6Result{}, fmt.Errorf("T6 XRP: no attribution collected")
	}
	return t6Result{attr: *a, mean: lat.Mean()}, nil
}
