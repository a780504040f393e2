package tenants

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// small builds a quick noisy-neighbor scenario for tests.
func small(arbiter string, hogs int) Scenario {
	return NoisyNeighbor(arbiter, hogs, 400, 400)
}

func run(t *testing.T, seed int64, sc Scenario) []*Result {
	t.Helper()
	return runIn(t, kernel.Env{}, seed, sc)
}

func runIn(t *testing.T, env kernel.Env, seed int64, sc Scenario) []*Result {
	t.Helper()
	res, _, err := Run(seed, sc, core.RunOptions{Env: env})
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return res
}

// TestOpenLoopCompletes: every generated arrival is served, for both
// arrival processes and a writing tenant.
func TestOpenLoopCompletes(t *testing.T) {
	sc := Scenario{
		Name: "basic",
		Tenants: []Tenant{
			{Name: "poisson", Engine: core.EngineBypassD, RateOps: 50_000, Ops: 300, BS: 4096, FileBytes: 4 << 20, QD: 2, SLO: 20 * sim.Microsecond},
			{Name: "fixed", Engine: core.EngineBypassD, Arrival: workload.Fixed, RateOps: 50_000, Ops: 300, BS: 4096, FileBytes: 4 << 20},
			{Name: "writer", Engine: core.EngineSync, RateOps: 20_000, Ops: 200, BS: 8192, WriteFrac: 0.5, FileBytes: 4 << 20},
		},
	}
	for i, r := range run(t, 1, sc) {
		want := int64(sc.Tenants[i].Ops)
		if r.Completed != want {
			t.Errorf("%s: served %d of %d arrivals", r.Tenant.Name, r.Completed, want)
		}
		if r.Sojourn.Count() != want {
			t.Errorf("%s: histogram has %d samples", r.Tenant.Name, r.Sojourn.Count())
		}
		if r.End <= r.Start {
			t.Errorf("%s: window [%v,%v]", r.Tenant.Name, r.Start, r.End)
		}
	}
}

// TestOpenLoopSeesQueueing: driving one tenant far over device
// capacity must surface queueing delay — mean sojourn well above the
// uncontended service time, and a backlog — which a closed-loop
// harness cannot produce.
func TestOpenLoopSeesQueueing(t *testing.T) {
	sc := Scenario{
		Name: "overload",
		Tenants: []Tenant{{
			// 2M ops/s offered against a ~1.49M ops/s device.
			Name: "hot", Engine: core.EngineBypassD, RateOps: 2_000_000,
			Ops: 2000, BS: 4096, FileBytes: 8 << 20, QD: 8,
		}},
	}
	r := run(t, 1, sc)[0]
	if r.PeakBacklog < 50 {
		t.Errorf("peak backlog %d under 134%% load, want a growing queue", r.PeakBacklog)
	}
	if mean := r.Sojourn.Mean(); mean < 50*sim.Microsecond {
		t.Errorf("mean sojourn %v under overload, want queueing delay ≫ 5µs service time", mean)
	}
}

// TestArbiterProtectsVictim is the tentpole acceptance check: under
// ≥8 noisy neighbors, the WRR and token-bucket arbiters must hold the
// latency-sensitive tenant's p99 below flat round-robin's.
func TestArbiterProtectsVictim(t *testing.T) {
	p99 := map[string]sim.Time{}
	for _, arb := range []string{"rr", "wrr", "prio"} {
		res := run(t, 1, small(arb, 8))
		victim := res[0]
		if victim.Tenant.Name != "victim" {
			t.Fatal("victim not first")
		}
		if victim.Completed != int64(victim.Tenant.Ops) {
			t.Fatalf("%s: victim served %d", arb, victim.Completed)
		}
		p99[arb] = victim.Sojourn.Percentile(99)
	}
	if p99["wrr"] >= p99["rr"] {
		t.Errorf("victim p99: wrr %v !< rr %v", p99["wrr"], p99["rr"])
	}
	if p99["prio"] >= p99["rr"] {
		t.Errorf("victim p99: prio %v !< rr %v", p99["prio"], p99["rr"])
	}
}

// TestReplayByteIdentical: the same seed renders the same report,
// down to the byte, across runs.
func TestReplayByteIdentical(t *testing.T) {
	sc := small("wrr", 4)
	a := ReportTable(sc, run(t, 7, sc)).String()
	b := ReportTable(sc, run(t, 7, sc)).String()
	if a != b {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
	}
	c := ReportTable(sc, run(t, 8, sc)).String()
	if a == c {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestTenantStorm: the tenant-storm fault profile injects arrival
// spikes and queue-full backpressure; the run must complete every
// arrival while the degradation counters record the events.
func TestTenantStorm(t *testing.T) {
	plan, err := faults.NewPlan("tenant-storm", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name: "storm",
		Tenants: []Tenant{{
			Name: "t0", Engine: core.EngineBypassD, RateOps: 100_000,
			Ops: 1500, BS: 4096, FileBytes: 8 << 20, QD: 4,
			SLO: 30 * sim.Microsecond,
		}},
	}
	r := runIn(t, kernel.Env{Faults: plan}, 3, sc)[0]
	if r.Completed != 1500 {
		t.Fatalf("storm run served %d of 1500 (degradation was not graceful)", r.Completed)
	}
	if r.Bursts == 0 {
		t.Error("no arrival bursts fired under tenant-storm")
	}
	if r.Lib.InjectedFaults == 0 {
		t.Error("userlib.Stats.InjectedFaults = 0 under queue-full backpressure")
	}
	if r.Lib.Fallbacks > 0 && r.Completed != 1500 {
		t.Error("fallbacks lost requests")
	}
	if r.PeakBacklog < workload.BurstArrivals {
		t.Errorf("peak backlog %d, want ≥ burst size %d", r.PeakBacklog, workload.BurstArrivals)
	}
}

// TestFaultedScaleOutWorkerInvariant: a two-device scale-out under the
// tenant-storm profile is a faulted run on the parallel engine. Its
// report, event count and injected faults must be identical across
// reruns and at 1 and 4 host workers.
func TestFaultedScaleOutWorkerInvariant(t *testing.T) {
	sc := ScaleOut(2, 300, 300)
	render := func(workers int) string {
		plan, err := faults.NewPlan("tenant-storm", 3)
		if err != nil {
			t.Fatal(err)
		}
		res, events, err := Run(3, sc, core.RunOptions{Env: kernel.Env{Faults: plan}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Total() == 0 {
			t.Fatal("tenant-storm injected nothing")
		}
		return fmt.Sprintf("%s\nevents %d\nfaults %v", ReportTable(sc, res), events, plan.Counts())
	}
	ref := render(1)
	for _, w := range []int{1, 4} {
		if got := render(w); got != ref {
			t.Fatalf("workers=%d differs from the first workers=1 run:\n%s\nvs\n%s", w, got, ref)
		}
	}
}

// TestConcurrentScenarios drives tenant submission through every
// arbiter from parallel goroutines (each on its own simulation) — the
// satellite -race check for the QoS plane.
func TestConcurrentScenarios(t *testing.T) {
	var wg sync.WaitGroup
	for _, arb := range []string{"rr", "wrr", "prio", "rr"} {
		arb := arb
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := Run(5, small(arb, 4), core.RunOptions{})
			if err != nil {
				t.Errorf("%s: %v", arb, err)
				return
			}
			if res[0].Completed != int64(res[0].Tenant.Ops) {
				t.Errorf("%s: victim served %d", arb, res[0].Completed)
			}
		}()
	}
	wg.Wait()
}

// TestScenarioJSON: the -tenants config format round-trips and loads.
func TestScenarioJSON(t *testing.T) {
	sc := Scenario{
		Name:    "from-file",
		Arbiter: "prio",
		Tenants: []Tenant{{
			Name: "a", Engine: core.EngineBypassD, RateOps: 10_000, Ops: 50,
			BS: 4096, FileBytes: 1 << 20,
			QoS: nvme.QoS{Weight: 8, RateOps: 5_000},
			SLO: 25 * sim.Microsecond,
		}},
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sc.Name || got.Arbiter != sc.Arbiter || len(got.Tenants) != 1 {
		t.Fatalf("loaded %+v", got)
	}
	if got.Tenants[0].QoS != sc.Tenants[0].QoS || got.Tenants[0].SLO != sc.Tenants[0].SLO {
		t.Fatalf("tenant fields lost: %+v", got.Tenants[0])
	}
	if _, err := resolve(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestBuiltinsRunnable: every named scenario validates and resolves.
func TestBuiltinsRunnable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Builtins() {
		if seen[sc.Name] {
			t.Errorf("duplicate builtin %q", sc.Name)
		}
		seen[sc.Name] = true
		for i := range sc.Tenants {
			if err := sc.Tenants[i].validate(); err != nil {
				t.Errorf("builtin %s: %v", sc.Name, err)
			}
		}
		if got, err := resolve(sc.Name); err != nil || got.Name != sc.Name {
			t.Errorf("resolve(%q) = %q, %v", sc.Name, got.Name, err)
		}
	}
	if _, err := resolve("no-such-scenario"); err == nil {
		t.Error("resolve accepted a bogus name")
	}
}
