package experiments

import (
	"runtime"
	"sync"
	"time"
)

// RunResult is one experiment's outcome under a Runner.
type RunResult struct {
	Experiment Experiment
	Report     *Report
	Err        error
	Wall       time.Duration
}

// Runner executes a set of experiments over sweepMap's worker pool.
// Workers pull the next unstarted experiment from a shared index
// (dynamic scheduling: a worker that finishes a short harness
// immediately steals the next one rather than idling behind a long
// one), and results are returned in the callers' submission order, so
// rendering them is byte-identical to a sequential run.
//
// Every experiment boots its own simulated systems and shares no
// mutable state with the others, which is what makes this safe — the
// same shared-nothing argument BypassD itself makes for per-thread
// queue pairs (§6.3).
type Runner struct {
	// Parallelism is the worker-pool size; <= 0 means GOMAXPROCS.
	Parallelism int
	// OnStart, when set, is called as each experiment begins
	// (serialized; use for progress output).
	OnStart func(e Experiment)
	// OnDone, when set, is called as each experiment finishes
	// (serialized, completion order — not submission order).
	OnDone func(r RunResult)

	mu sync.Mutex // serializes OnStart/OnDone
}

// Run executes exps with the given options and returns one result per
// experiment, index-aligned with exps regardless of completion order.
// Every machine any experiment boots picks up o.Env.
func (r *Runner) Run(exps []Experiment, o Options) []RunResult {
	// The experiment pool is a sweep over exps; o itself, with its own
	// Parallelism for sweep cells, goes to every experiment unchanged.
	pool := Options{Parallelism: r.Parallelism}
	if pool.Parallelism <= 0 {
		pool.Parallelism = runtime.GOMAXPROCS(0)
	}
	// runOne never fails the sweep: errors stay per experiment.
	results, _ := sweepMap(pool, len(exps), func(i int) (RunResult, error) {
		return r.runOne(exps[i], o), nil
	})
	return results
}

func (r *Runner) runOne(e Experiment, o Options) RunResult {
	if r.OnStart != nil {
		r.mu.Lock()
		r.OnStart(e)
		r.mu.Unlock()
	}
	start := time.Now()
	rep, err := e.Run(o)
	res := RunResult{Experiment: e, Report: rep, Err: err, Wall: time.Since(start)}
	if r.OnDone != nil {
		r.mu.Lock()
		r.OnDone(res)
		r.mu.Unlock()
	}
	return res
}
