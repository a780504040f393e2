// Command perfbench is the repository benchmark: it drives the BypassD
// simulator through four workloads and prints one JSON result line.
//
//	perfbench --workload rw-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured
// with no profiler and no tracer attached. With --trace 1 a separate
// run reports the per-layer metrics: a CPU profile bucketed by
// internal/<module>, host spans the driver records around its own
// calls into each layer, and the simulator's virtual-clock trace
// plane. NOTES.md explains the workloads and what each layer metric
// should move.
//
// Run it through run.sh, which builds it from the checkout's sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, on every
// workload. Virtual-clock results are per-workload quantities, so they
// live among the per-layer metrics (the "virt" layer) and their
// repeatability is checked inside each run instead.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_pct", "%"},
}

// perLayer are the metrics every traced run reports. A layer a
// workload does not reach reports 0. Units ending in -virt are on the
// simulated clock: they repeat exactly at one seed, and a change to
// one is a change to the model, not to the simulator's speed.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"fail_pct", "%"},
		{"profile.coverage_pct", "%"},
		{"profile.samples", "count"},

		{"sim.events_per_op", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.wall_ns_per_virtual_ns", "ns/ns"},
		{"sim.epoch_speedup", "x"},

		{"runtime.switch_pct", "%"},
		{"runtime.gc_pct", "%"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.bytes_per_op", "B"},
		{"runtime.heap_growth_per_op", "B"},

		{"userlib.direct_ops", "count"},
		{"userlib.fallback_ops", "count"},
		{"userlib.retries", "count"},
		{"userlib.open_host_us", "us"},
		{"userlib.user_ns_per_op", "ns-virt"},
		{"userlib.device_ns_per_op", "ns-virt"},

		{"iommu.pwc_hit_ratio", "ratio"},
		{"iommu.faults", "count"},
		{"iommu.translate_host_ns", "ns"},
		{"iommu.translate_allocs", "count"},
		{"pagetable.leaffor_host_ns", "ns"},
		{"pagetable.leaffor_allocs", "count"},

		{"device.cmds_per_op", "count"},
		{"device.bytes_per_op", "B"},
		{"device.faults", "count"},

		{"kernel.create_host_us", "us"},
		{"kernel.fallocate_host_us", "us"},
		{"kernel.unlink_host_us", "us"},
		{"kernel.sync_host_us", "us"},

		{"trace.submit_ns", "ns-virt"},
		{"trace.translate_ns", "ns-virt"},
		{"trace.media_ns", "ns-virt"},
		{"trace.complete_ns", "ns-virt"},
		{"trace.overhead_pct", "%"},

		{"frontend.shed_pct", "%"},
		{"frontend.peak_backlog", "count"},
		{"frontend.users_served", "count"},

		{"experiments.suite_s", "s"},

		{"virt.read_p50_us", "us-virt"},
		{"virt.read_p999_us", "us-virt"},
		{"virt.read_samples", "count"},
		{"virt.write_p50_us", "us-virt"},
		{"virt.write_p999_us", "us-virt"},
		{"virt.write_samples", "count"},
		{"virt.kiops", "kops-virt"},
		{"virt.open_p50_us", "us-virt"},
		{"virt.open_samples", "count"},
		{"virt.goodput_kops", "kops-virt"},
		{"virt.slo_pct", "%"},
		{"virt.sojourn_p99_us", "us-virt"},
		{"virt.sojourn_samples", "count"},
	}
	for _, b := range profileBuckets {
		d = append(d, metricDef{b + ".cpu_pct", "%"})
	}
	for _, id := range suiteIDs {
		d = append(d, metricDef{"experiments." + id + ".wall_s", "s"})
	}
	return d
}()

// run is one benchmark invocation: its inputs and what it measured.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool

	vals      map[string]float64
	attempted int64
	failed    int64
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.vals[name] = v }

// check counts one correctness check, failing it (with a diagnostic
// on standard error) when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// errorf counts a failed operation.
func (r *run) errorf(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"rw-mix":      runRWMix,
	"meta-churn":  runMetaChurn,
	"fleet-2ssd":  runFleet,
	"paper-quick": runPaperQuick,
}

func main() {
	workload := flag.String("workload", "", "workload name: rw-mix, meta-churn, fleet-2ssd, paper-quick")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, traced int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d: must be 0 or 1", traced)
	}
	if err := checkBenchmarkFile(); err != nil {
		return err
	}
	// Load comes from this one process; never ask for more host
	// threads than the machine has, nor more than two.
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}
	r := &run{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: traced == 1, vals: map[string]float64{}}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s: attempted nothing", workload)
	}
	failPct := 100 * float64(r.failed) / float64(r.attempted)
	defs := endToEnd
	if r.trace {
		defs = perLayer
		r.set("fail_pct", failPct)
	} else {
		r.set("ok_pct", 100-failPct)
		r.set("peak_rss_mb", peakRSSMB())
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && !r.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", workload, d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkBenchmarkFile verifies that BENCHMARK.json, read from the
// working directory (the root of the checkout), declares exactly the
// metrics this driver reports, with the same units.
func checkBenchmarkFile() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	same := func(what string, want []metricDef, got []struct{ Name, Unit string }) error {
		w := make([]string, len(want))
		for i, d := range want {
			w[i] = d.name + " " + d.unit
		}
		g := make([]string, len(got))
		for i, d := range got {
			g[i] = d.Name + " " + d.Unit
		}
		sort.Strings(w)
		sort.Strings(g)
		if fmt.Sprint(w) != fmt.Sprint(g) {
			return fmt.Errorf("BENCHMARK.json %s metrics differ from the driver's:\n file:   %v\n driver: %v", what, g, w)
		}
		return nil
	}
	if err := same("end_to_end", endToEnd, spec.EndToEnd); err != nil {
		return err
	}
	return same("per_layer", perLayer, spec.PerLayer)
}
