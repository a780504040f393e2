// Command bypassd-bench regenerates the paper's tables and figures.
//
//	bypassd-bench                 # run everything, quick scale
//	bypassd-bench -full           # paper-scale sweeps (minutes)
//	bypassd-bench -run F6,F9      # selected experiments
//	bypassd-bench -trials 5       # 5 seeded trials per cell: mean ± 95% CI columns
//	bypassd-bench -j 8            # run experiments and sweep cells in parallel
//	bypassd-bench -workers 4      # host cores per multi-SSD cell (epoch engine)
//	bypassd-bench -list           # show the experiment index
//	bypassd-bench -o results.md   # also write a markdown report
//	bypassd-bench -json run.json  # machine-readable per-experiment results
//	bypassd-bench -faults chaos   # run under a named fault-injection profile
//	bypassd-bench -tenants noisy-neighbor-wrr-8   # run one tenant scenario (builtin or JSON file)
//	bypassd-bench -frontend fleet-token-2.0x      # run one service-tier fleet (builtin or JSON file)
//	bypassd-bench -trace t.json   # per-request spans as Chrome trace-event JSON
//	bypassd-bench -metrics        # print the unified metrics registry after the run
//	bypassd-bench -cpuprofile cpu.pprof -memprofile mem.pprof  # host-level pprof profiles
//
// Reports go to stdout in the experiments' registered order and are
// byte-identical at any -j value; progress and timing lines go to
// stderr so that `bypassd-bench -j 8 > out` equals `-j 1 > out`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tenants"
	"repro/internal/trace"
)

// jsonResult is one experiment's machine-readable outcome.
type jsonResult struct {
	ID       string  `json:"id"`
	Title    string  `json:"title"`
	Headline string  `json:"headline,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	Err      string  `json:"err,omitempty"`
}

// jsonRun is the -json output: run metadata plus per-experiment rows.
type jsonRun struct {
	Mode        string            `json:"mode"`
	Seed        int64             `json:"seed"`
	Trials      int               `json:"trials,omitempty"`
	Parallelism int               `json:"parallelism"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	TotalWallMS float64           `json:"total_wall_ms"`
	Faults      string            `json:"faults,omitempty"`
	FaultsTotal int64             `json:"faults_total,omitempty"`
	FaultsBy    map[string]int64  `json:"faults_by_site,omitempty"`
	Metrics     *metrics.Snapshot `json:"metrics,omitempty"`
	Results     []jsonResult      `json:"results"`
}

func main() {
	os.Exit(run())
}

// tierExperiment wraps one -tenants scenario or -frontend fleet — a
// builtin name or a JSON config file — as a one-off experiment whose
// report is the tier's table, so it shares the experiments' run and
// reporting path.
func tierExperiment(tenantsF, frontF string, devices int) (experiments.Experiment, error) {
	var e experiments.Experiment
	var table func(seed int64, o core.RunOptions) (*stats.Table, error)
	if tenantsF != "" {
		sc, ok := tenants.ByName(tenantsF)
		if !ok {
			var err error
			if sc, err = tenants.Load(tenantsF); err != nil {
				return e, fmt.Errorf("-tenants %q: not a builtin scenario (try -list) and %v", tenantsF, err)
			}
		}
		if devices > 0 {
			sc.Devices = devices
		}
		e.ID = sc.Name
		e.Title = fmt.Sprintf("tenant scenario (%d tenants, %d device(s), arbiter %s)",
			len(sc.Tenants), sc.NumDevices(), sc.ArbiterName())
		table = func(seed int64, o core.RunOptions) (*stats.Table, error) {
			res, _, err := tenants.Run(seed, sc, o)
			if err != nil {
				return nil, err
			}
			return tenants.ReportTable(sc, res), nil
		}
	} else {
		fl, ok := frontend.ByName(frontF)
		if !ok {
			var err error
			if fl, err = frontend.Load(frontF); err != nil {
				return e, fmt.Errorf("-frontend %q: not a builtin fleet (try -list) and %v", frontF, err)
			}
		}
		if devices > 0 {
			fl.Devices = devices
		}
		e.ID = fl.Name
		e.Title = fmt.Sprintf("frontend fleet (%d users, pool %d, %d device(s), %s admission)",
			fl.Users, fl.Pool, fl.NumDevices(), fl.PolicyName())
		table = func(seed int64, o core.RunOptions) (*stats.Table, error) {
			res, _, err := frontend.Run(seed, fl, o)
			if err != nil {
				return nil, err
			}
			return frontend.ReportTable(fl, res), nil
		}
	}
	e.Run = func(o experiments.Options) (*experiments.Report, error) {
		tb, err := table(o.Seed, core.RunOptions{Env: o.Env, Workers: o.Workers})
		if err != nil {
			return nil, err
		}
		return &experiments.Report{ID: e.ID, Tables: []*stats.Table{tb}}, nil
	}
	return e, nil
}

// run is main minus os.Exit, so the profile-writing defers installed
// for -cpuprofile/-memprofile always flush before the process ends.
func run() int {
	var (
		runList  = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		full     = flag.Bool("full", false, "paper-scale sweeps instead of quick mode")
		list     = flag.Bool("list", false, "list experiments and exit")
		seed     = flag.Int64("seed", 1, "workload seed")
		trials   = flag.Int("trials", 1, "independent seeded trials per sweep cell; >1 adds mean±95% CI and spread columns")
		parallel = flag.Int("j", 1, "worker count for experiments and sweep cells; 0 = GOMAXPROCS")
		shardW   = flag.Int("workers", 1, "host goroutines per multi-SSD scenario's event shards (conservative epoch engine; results are byte-identical at any value)")
		out      = flag.String("o", "", "also write the combined report to this file")
		jsonOut  = flag.String("json", "", "write machine-readable results to this file")
		faultsP  = flag.String("faults", "", "fault-injection profile name (see -list); empty = disabled")
		tenantsF = flag.String("tenants", "", "run one multi-tenant scenario: a builtin name (see -list) or a JSON config file")
		frontF   = flag.String("frontend", "", "run one service-tier fleet: a builtin name (see -list) or a JSON config file")
		devices  = flag.Int("devices", 0, "SSD count for the topology-aware paths: overrides a -tenants scenario's device count and narrows T9 to one cell; 0 = scenario/experiment default")
		traceOut = flag.String("trace", "", "write per-request spans to this file (Chrome trace-event JSON)")
		metricsF = flag.Bool("metrics", false, "print the unified metrics registry to stdout after the run")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a host allocation profile (after the run) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuProf, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
				return
			}
			runtime.GC() // settle live objects so alloc_space dominates
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			}
			_ = f.Close()
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nfault profiles (-faults):")
		for _, p := range faults.Profiles() {
			fmt.Printf("%-14s %s\n", p.Name, p.Desc)
		}
		fmt.Println("\ntenant scenarios (-tenants):")
		for _, sc := range tenants.Builtins() {
			fmt.Printf("%-24s %d tenants, arbiter %s\n", sc.Name, len(sc.Tenants), sc.ArbiterName())
		}
		fmt.Println("\nfrontend fleets (-frontend):")
		for _, fl := range frontend.Builtins() {
			fmt.Printf("%-24s %d users over pool %d, %s admission, %s backend\n",
				fl.Name, fl.Users, fl.Pool, fl.PolicyName(), fl.Backend)
		}
		return 0
	}

	// One run environment for every path, built before anything boots:
	// an unknown fault profile fails here.
	var env kernel.Env
	if *faultsP != "" {
		plan, err := faults.NewPlan(*faultsP, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v (try -list)\n", err)
			return 1
		}
		env.Faults = plan
	}
	if *traceOut != "" {
		env.Trace = trace.NewCollector()
	}
	if *metricsF {
		env.Metrics = metrics.NewRegistry()
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var exps []experiments.Experiment
	bad := 0
	mode := "quick"
	if *full {
		mode = "full (paper-scale)"
	}
	tier := *tenantsF != "" || *frontF != ""
	switch {
	case tier:
		e, err := tierExperiment(*tenantsF, *frontF, *devices)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		exps = []experiments.Experiment{e}
		mode = "tier"
	case *runList == "all":
		exps = experiments.All()
	default:
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				bad++
				continue
			}
			exps = append(exps, e)
		}
	}

	opts := experiments.Options{Quick: !*full, Seed: *seed, Parallelism: workers, Env: env, Trials: *trials, Devices: *devices, Workers: *shardW}
	if *trials > 1 && !tier {
		fmt.Fprintf(os.Stderr, "== %d trials per cell (trial k at seed %d+k-derived); tables report mean ± 95%% CI\n",
			*trials, *seed)
	}
	if *faultsP != "" {
		fmt.Fprintf(os.Stderr, "== fault profile %q armed (seed %d)\n", *faultsP, *seed)
	}

	runner := &experiments.Runner{
		Parallelism: workers,
		OnStart: func(e experiments.Experiment) {
			fmt.Fprintf(os.Stderr, "== running %s: %s\n", e.ID, e.Title)
		},
		OnDone: func(r experiments.RunResult) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "== %s failed after %.1fs: %v\n", r.Experiment.ID, r.Wall.Seconds(), r.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "== %s done (wall time %.1fs)\n", r.Experiment.ID, r.Wall.Seconds())
		},
	}
	start := time.Now()
	results := runner.Run(exps, opts)
	total := time.Since(start)

	// A tier prints its bare table; experiments print full reports
	// under a title line that only the -o file carries.
	var combined strings.Builder
	if !tier {
		fmt.Fprintf(&combined, "# BypassD reproduction results (%s mode)\n\n", mode)
	}
	failed := bad
	for _, r := range results {
		if r.Err != nil {
			failed++
			continue
		}
		text := r.Report.String() + "\n"
		if tier {
			text = r.Report.Tables[0].String()
		}
		fmt.Print(text)
		combined.WriteString(text)
	}
	var snap *metrics.Snapshot
	if reg := env.Metrics; reg != nil {
		// Fold the fault plan's counters into the registry so one
		// render covers every subsystem.
		for site, n := range env.Faults.Counts() {
			reg.Counter("faults_injected_total", "site", site).Add(n)
		}
		fmt.Print(reg.Render())
		fmt.Println()
		s := reg.Snapshot()
		snap = &s
	}
	fmt.Fprintf(os.Stderr, "== total wall time %.1fs (%d experiments, -j %d)\n",
		total.Seconds(), len(results), workers)
	if *traceOut != "" {
		if err := writeTrace(env.Trace, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *traceOut, err)
			failed++
		}
	}
	if *faultsP != "" {
		counts := env.Faults.Counts()
		sites := make([]string, 0, len(counts))
		for s := range counts {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		fmt.Fprintf(os.Stderr, "== injected faults: %d total (profile %q)\n", env.Faults.Total(), *faultsP)
		for _, s := range sites {
			fmt.Fprintf(os.Stderr, "==   %-28s %d\n", s, counts[s])
		}
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(combined.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			failed++
		}
	}
	if *jsonOut != "" {
		run := jsonRun{
			Mode:        mode,
			Seed:        *seed,
			Trials:      opts.Trials,
			Parallelism: workers,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			TotalWallMS: float64(total.Microseconds()) / 1000,
		}
		if *faultsP != "" {
			run.Faults = *faultsP
			run.FaultsTotal = env.Faults.Total()
			run.FaultsBy = env.Faults.Counts()
		}
		run.Metrics = snap
		for _, r := range results {
			jr := jsonResult{
				ID:     r.Experiment.ID,
				Title:  r.Experiment.Title,
				WallMS: float64(r.Wall.Microseconds()) / 1000,
			}
			if r.Err != nil {
				jr.Err = r.Err.Error()
			} else {
				jr.Headline = r.Report.Headline()
			}
			run.Results = append(run.Results, jr)
		}
		data, err := json.MarshalIndent(run, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeTrace renders a run's collected spans to path and reports the
// event count on stderr.
func writeTrace(c *trace.Collector, path string) error {
	out, err := c.Render()
	if err == nil {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	ev, dr := c.Events()
	fmt.Fprintf(os.Stderr, "== trace: %d events (%d dropped) -> %s\n", ev, dr, path)
	return nil
}
