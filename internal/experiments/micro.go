package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("F5", "IOMMU overhead vs translations per ATS request (Fig. 5)", runF5)
	register("F6", "FIO single-threaded random-access latency vs bandwidth (Fig. 6)", runF6)
	register("F7", "Random read latency breakdown (Fig. 7)", runF7)
	register("F8", "Effect of VBA translation latency on read bandwidth (Fig. 8)", runF8)
	register("F9", "Random read latency and IOPS vs thread count (Fig. 9)", runF9)
}

func runF5(o Options) (*Report, error) {
	u := iommu.New(iommu.DefaultConfig())
	u.SetEnv(nil, o.Env.Metrics)
	tb := stats.NewTable("Fig. 5: IOMMU overhead vs translations per request",
		"translations", "overhead (ns)")
	for n := 1; n <= 12; n++ {
		tb.AddRow(n, int64(u.WalkOverhead(n)))
	}
	return &Report{ID: "F5", Title: "ATS translation scaling", Tables: []*stats.Table{tb},
		Notes: []string{"flat 1-2, small step at 3, flat to 8 (one cacheline holds 8 PTEs)"}}, nil
}

// blockSizes is the Fig. 6/7/8 sweep.
func blockSizes(quick bool) []int {
	if quick {
		return []int{4096, 65536}
	}
	return []int{4096, 8192, 16384, 32768, 65536, 131072}
}

func microOps(quick bool) int {
	if quick {
		return 60
	}
	return 400
}

func runF6(o Options) (*Report, error) {
	type cell struct {
		write bool
		bs    int
		eng   core.Engine
	}
	var cells []cell
	for _, write := range []bool{false, true} {
		for _, bs := range blockSizes(o.Quick) {
			for _, e := range core.AllEngines {
				cells = append(cells, cell{write, bs, e})
			}
		}
	}
	type point struct {
		lat, bw float64
		s       stats.Summary
	}
	points, err := trialMap(o, len(cells), func(i int, seed int64) (point, error) {
		c := cells[i]
		res, err := fio.Run(fio.Spec{Env: o.Env, Seed: seed}, []fio.Group{{
			Name: "m", Engine: c.eng, Write: c.write, BS: c.bs, Threads: 1,
			OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
		}})
		if err != nil {
			kind := "read"
			if c.write {
				kind = "write"
			}
			return point{}, fmt.Errorf("F6 %s %s bs=%d: %w", kind, c.eng, c.bs, err)
		}
		r := res["m"]
		return point{r.Lat.Mean().Micros(), r.Bandwidth() / 1e9, r.Lat.Summarize()}, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "F6", Title: "single-thread latency vs bandwidth"}
	var tb *stats.Table
	lastWrite := false
	for i, c := range cells {
		if tb == nil || c.write != lastWrite {
			kind := "read"
			if c.write {
				kind = "write"
			}
			title := fmt.Sprintf("Fig. 6: random %s, 1 thread, QD1", kind)
			if o.trials() == 1 {
				tb = stats.NewTable(title,
					"block size", "engine", "latency (µs)", "bandwidth (GB/s)")
			} else {
				tb = stats.NewTable(trialTitle(title, o),
					"block size", "engine", "latency (µs)", "lat ci95",
					"p99 (µs)", "p99 span (µs)", "bandwidth (GB/s)", "bw ci95")
			}
			rep.Tables = append(rep.Tables, tb)
			lastWrite = c.write
		}
		if o.trials() == 1 {
			p := points[i][0]
			tb.AddRow(sizeLabel(int64(c.bs)), string(c.eng), p.lat, p.bw)
			continue
		}
		summaries := make([]stats.Summary, len(points[i]))
		var lat, bw stats.Welford
		for t, p := range points[i] {
			summaries[t] = p.s
			lat.Add(p.lat)
			bw.Add(p.bw)
		}
		ts := stats.AggregateSummaries(summaries)
		tb.AddRow(sizeLabel(int64(c.bs)), string(c.eng),
			lat.Mean(), ciCell(&lat, 1),
			ts.P99.Mean()/1e3, spanCell(ts.P99Lo, ts.P99Hi, 1e3),
			bw.Mean(), ciCell(&bw, 1))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: bypassd ≈ spdk (+~0.55µs reads, ~0 writes); ~30% below sync/libaio; io_uring between")
	if o.trials() > 1 {
		rep.Notes = append(rep.Notes, trialNote(o))
	}
	return rep, nil
}

func runF7(o Options) (*Report, error) {
	type cell struct {
		bs  int
		eng core.Engine
	}
	var cells []cell
	for _, bs := range blockSizes(o.Quick) {
		for _, e := range []core.Engine{core.EngineSync, core.EngineBypassD} {
			cells = append(cells, cell{bs, e})
		}
	}
	type split struct{ user, kern, dev, total sim.Time }
	splits, err := sweepMap(o, len(cells), func(i int) (split, error) {
		c := cells[i]
		res, err := fio.Run(fio.Spec{Env: o.Env, Seed: o.Seed}, []fio.Group{{
			Name: "m", Engine: c.eng, BS: c.bs, Threads: 1,
			OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
		}})
		if err != nil {
			return split{}, err
		}
		r := res["m"]
		s := split{total: r.Lat.Mean()}
		if c.eng == core.EngineBypassD {
			// Instrumented in UserLib: device = submit..complete
			// (incl. VBA translation); user = the rest.
			s.dev = r.DeviceNS / sim.Time(r.Ops)
			s.user = s.total - s.dev
		} else {
			// Sync path: software layers are the calibrated
			// constants; the rest is device time.
			cfg := kernel.DefaultConfig()
			s.kern = cfg.VFSCost + cfg.BlockLayer + cfg.DriverSubmit +
				sim.Time((c.bs-1)/4096)*cfg.VFSPerPage
			s.user = cfg.SyscallEnter + cfg.SyscallExit
			s.dev = s.total - s.kern - s.user
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig. 7: random read latency breakdown",
		"block size", "system", "user (µs)", "kernel (µs)", "device (µs)", "total (µs)")
	for i, c := range cells {
		s := splits[i]
		tb.AddRow(sizeLabel(int64(c.bs)), string(c.eng), s.user.Micros(), s.kern.Micros(), s.dev.Micros(), s.total.Micros())
	}
	return &Report{ID: "F7", Title: "latency breakdown", Tables: []*stats.Table{tb},
		Notes: []string{"bypassd 'user' is dominated by the user↔DMA copy at large blocks"}}, nil
}

func runF8(o Options) (*Report, error) {
	delays := []sim.Time{0, 350, 550, 950, 1350}
	type cell struct {
		bs    int
		delay sim.Time // -1 marks the sync reference row
	}
	var cells []cell
	for _, bs := range blockSizes(o.Quick) {
		for _, d := range delays {
			cells = append(cells, cell{bs, d})
		}
		cells = append(cells, cell{bs, -1})
	}
	bws, err := sweepMap(o, len(cells), func(i int) (float64, error) {
		c := cells[i]
		g := fio.Group{
			Name: "m", Engine: core.EngineBypassD, BS: c.bs, Threads: 1,
			OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
		}
		spec := fio.Spec{Env: o.Env, Seed: o.Seed}
		if c.delay < 0 { // sync reference
			g.Engine = core.EngineSync
		} else {
			spec.IOMMU = func(cfg *iommu.Config) { cfg.FixedVBALatency = c.delay }
		}
		res, err := fio.Run(spec, []fio.Group{g})
		if err != nil {
			return 0, err
		}
		return res["m"].Bandwidth() / 1e9, nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig. 8: single-thread read bandwidth vs VBA translation latency",
		"block size", "translation (ns)", "bandwidth (GB/s)")
	for i, c := range cells {
		if c.delay < 0 {
			tb.AddRow(sizeLabel(int64(c.bs)), "sync", bws[i])
		} else {
			tb.AddRow(sizeLabel(int64(c.bs)), int64(c.delay), bws[i])
		}
	}
	return &Report{ID: "F8", Title: "translation latency sensitivity", Tables: []*stats.Table{tb},
		Notes: []string{"even at 1350ns, bypassd stays well above sync (paper Fig. 8)"}}, nil
}

// f9Ops is the per-thread op count of an F9 cell, shared with the
// statistical gates.
func f9Ops(quick bool) int {
	if quick {
		return 80
	}
	return 300
}

func runF9(o Options) (*Report, error) {
	threads := []int{1, 2, 4, 8, 12, 16, 20, 24}
	if o.Quick {
		threads = []int{1, 8, 16}
	}
	ops := f9Ops(o.Quick)
	type cell struct {
		n   int
		eng core.Engine
	}
	var cells []cell
	for _, n := range threads {
		for _, e := range core.AllEngines {
			cells = append(cells, cell{n, e})
		}
	}
	type point struct {
		lat, iops float64
		s         stats.Summary
	}
	points, err := trialMap(o, len(cells), func(i int, seed int64) (point, error) {
		c := cells[i]
		res, err := fio.Run(fio.Spec{Env: o.Env, Seed: seed}, []fio.Group{{
			Name: "m", Engine: c.eng, BS: 4096, Threads: c.n,
			OpsPerThread: ops, FileBytes: 16 << 20,
		}})
		if err != nil {
			return point{}, err
		}
		r := res["m"]
		return point{r.Lat.Mean().Micros(), r.IOPS() / 1000, r.Lat.Summarize()}, nil
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		"bypassd/spdk flat until device saturation (~8 threads), kernel paths saturate ~12",
		"io_uring collapses past 12 threads: SQPOLL needs a second core per thread",
	}
	const title = "Fig. 9: 4KB random read scaling"
	if o.trials() == 1 {
		tb := stats.NewTable(title,
			"threads", "engine", "latency (µs)", "IOPS (K)")
		for i, c := range cells {
			p := points[i][0]
			tb.AddRow(c.n, string(c.eng), p.lat, p.iops)
		}
		return &Report{ID: "F9", Title: "thread scaling", Tables: []*stats.Table{tb}, Notes: notes}, nil
	}

	tb := stats.NewTable(trialTitle(title, o),
		"threads", "engine", "latency (µs)", "lat ci95",
		"p99 (µs)", "p99 span (µs)", "IOPS (K)", "iops ci95")
	for i, c := range cells {
		summaries := make([]stats.Summary, len(points[i]))
		var lat, iops stats.Welford
		for t, p := range points[i] {
			summaries[t] = p.s
			lat.Add(p.lat)
			iops.Add(p.iops)
		}
		ts := stats.AggregateSummaries(summaries)
		tb.AddRow(c.n, string(c.eng),
			lat.Mean(), ciCell(&lat, 1),
			ts.P99.Mean()/1e3, spanCell(ts.P99Lo, ts.P99Hi, 1e3),
			iops.Mean(), ciCell(&iops, 1))
	}
	return &Report{ID: "F9", Title: "thread scaling", Tables: []*stats.Table{tb},
		Notes: append(notes, trialNote(o))}, nil
}
