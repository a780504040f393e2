package main

import (
	"crypto/sha256"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// paper-quick: the table harnesses a user runs to reproduce the paper,
// every registered experiment in quick mode with two concurrent sweep
// cells. T2 is left out: it counts the repository's own source lines,
// so its output and its time change with every change to the code.
const (
	pqParallelism = 2
	pqMinRounds   = 2 // rounds every run makes, to compare report digests
	pqSetups      = 21
	pqSetupBytes  = 1 << 30 // the paper testbed device most experiments boot
)

// suiteIDs are the experiments whose host time the traced run reports
// one by one. An experiment registered later still runs in the suite.
var suiteIDs = []string{
	"T1", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
	"F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16",
	"A1", "A2", "A3", "A4", "A5", "A6", "S1", "S2",
}

// suiteRound runs the suite once in registered order, returning each
// experiment's host time and report digest.
func suiteRound(r *run, exps []experiments.Experiment) (map[string]time.Duration, map[string][32]byte, time.Duration) {
	o := experiments.Options{Quick: true, Parallelism: pqParallelism, Seed: r.seed}
	walls := map[string]time.Duration{}
	sums := map[string][32]byte{}
	t0 := time.Now()
	for _, e := range exps {
		s := time.Now()
		rep, err := e.Run(o)
		walls[e.ID] = time.Since(s)
		r.attempted++
		if err != nil {
			r.errorf("paper-quick %s: %v", e.ID, err)
			continue
		}
		sums[e.ID] = sha256.Sum256([]byte(rep.String()))
	}
	return walls, sums, time.Since(t0)
}

func runPaperQuick(r *run) error {
	var exps []experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID != "T2" {
			exps = append(exps, e)
		}
	}
	if !r.trace {
		// Set-up here is booting the paper's testbed machine, which
		// nearly every harness does for every cell.
		_, setup, err := timeSetups(pqSetups, func() (*core.System, error) { return core.New(pqSetupBytes) }, (*core.System).Close)
		if err != nil {
			return err
		}
		r.set("setup_s", setup)
	}

	walls := map[string][]float64{}
	var suite []float64
	var first map[string][32]byte
	measure := func() {
		t0 := time.Now()
		for len(suite) < pqMinRounds || time.Since(t0) < r.seconds {
			w, sums, d := suiteRound(r, exps)
			suite = append(suite, d.Seconds())
			for id, x := range w {
				walls[id] = append(walls[id], x.Seconds())
			}
			if first == nil {
				first = sums
				continue
			}
			for _, e := range exps {
				r.check(sums[e.ID] == first[e.ID], "paper-quick %s: report differs between rounds at one seed", e.ID)
			}
		}
	}
	if !r.trace {
		measure()
		// Each experiment's fastest round: interference only slows a
		// round down, and the experiments differ too much in length
		// for one round-level statistic to filter it.
		var best float64
		for _, e := range exps {
			best += percentile(walls[e.ID], 0)
		}
		r.set("ops_per_s", float64(len(exps))/best)
		return nil
	}
	heap0 := heapAfterGC()
	allocs := startAllocs()
	if err := profiled(r, measure); err != nil {
		return err
	}
	ops := int64(len(suite) * len(exps))
	a, b := allocs.perOp(ops)
	r.set("runtime.allocs_per_op", a)
	r.set("runtime.bytes_per_op", b)
	r.set("runtime.heap_growth_per_op", float64(int64(heapAfterGC())-int64(heap0))/float64(ops))
	r.set("experiments.suite_s", median(suite))
	for _, id := range suiteIDs {
		r.set("experiments."+id+".wall_s", median(walls[id]))
	}
	return nil
}
