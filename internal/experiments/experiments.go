// Package experiments contains one harness per table and figure of
// the paper's evaluation (§6), plus the ablations called out in
// DESIGN.md. Each experiment boots fresh simulated systems, runs the
// workload, and renders the same rows/series the paper reports.
//
// Absolute numbers come from a calibrated simulator, so they are not
// expected to equal the paper's testbed measurements; the shapes —
// who wins, by what factor, where crossovers fall — are the
// reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks op counts and sweep points so the full suite
	// runs in seconds (used by tests); the default (false) runs the
	// paper-scale sweeps.
	Quick bool
	// Seed randomizes workloads deterministically.
	Seed int64
	// Parallelism bounds the number of sweep cells an experiment may
	// run concurrently (each cell boots its own simulated system).
	// Values <= 1 run cells sequentially. Results are byte-identical
	// at any setting: every cell is seeded from Seed plus its sweep
	// coordinates, and rows render in sweep order after all cells
	// finish.
	Parallelism int
	// Env is the run environment every machine the experiments boot
	// picks up: the fault plan, trace collector and metrics registry.
	// The zero value is a clean, unobserved run. A fault plan built at
	// Seed replays byte-for-byte at any Parallelism.
	Env kernel.Env
	// Devices narrows the topology-aware experiments to one device
	// count: T9 runs only the N-device cell instead of its 1→8 ladder.
	// 0 (the default) sweeps the ladder. Other experiments ignore it —
	// their single-device machines are the paper's testbed.
	Devices int
	// Trials is the number of independent seeded repetitions each
	// sweep cell runs. <= 1 runs the single historical trial and keeps
	// every table byte-identical to earlier releases. With N > 1, the
	// trial-aware harnesses (T7, T8, F6, F9) run each cell once per
	// seed TrialSeed(k) — derived from Seed and the trial index k,
	// never from execution order — and report cross-seed statistics:
	// mean ± 95% Student-t confidence intervals and p99/p999 spread
	// columns. Trials share the Parallelism worker pool with sweep
	// cells, and reports stay byte-identical at any -j.
	Trials int
	// Workers sets how many host goroutines execute the event shards
	// of each multi-device scenario's traffic phase (the simulator's
	// conservative epoch engine; DESIGN.md §15). It is orthogonal to
	// Parallelism: Parallelism runs whole sweep cells concurrently,
	// Workers parallelizes the inside of one multi-device cell.
	// Results are byte-identical at any value; <= 1 runs the epoch
	// schedule on one goroutine. Single-device cells ignore it.
	Workers int
}

// runOptions scopes a traffic-tier run (tenants, frontend) to o.
func (o Options) runOptions() core.RunOptions {
	return core.RunOptions{Env: o.Env, Workers: o.Workers}
}

// kernelConfig is the paper's kernel calibration, booting into o.Env.
func (o Options) kernelConfig() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Env = o.Env
	return cfg
}

// Report is an experiment's output.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Headline summarizes the report's first data row — the experiment's
// leading metric — as "col=val ..." for machine-readable run logs.
func (r *Report) Headline() string {
	if len(r.Tables) == 0 {
		return ""
	}
	t := r.Tables[0]
	if len(t.Rows) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range t.Rows[0] {
		if i > 0 {
			b.WriteString(" ")
		}
		h := ""
		if i < len(t.Headers) {
			h = t.Headers[i]
		}
		fmt.Fprintf(&b, "%s=%s", h, c)
	}
	return b.String()
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered harness.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Options) (*Report, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// All returns every experiment in a stable order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts T1 < T2 < T4 < T5 < F5 < ... < F16 < A*.
func orderKey(id string) string {
	if len(id) < 2 {
		return "z" + id
	}
	var class string
	switch id[0] {
	case 'T':
		class = "0"
	case 'F':
		class = "1"
	case 'A':
		class = "2"
	default:
		class = "3"
	}
	return fmt.Sprintf("%s%03s", class, id[1:])
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists registered experiment IDs in run order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}
