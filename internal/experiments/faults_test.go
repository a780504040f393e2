package experiments

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
)

// faultTestIDs is a small, fast subset of experiments that exercises
// the userlib direct path, the kernel path, and SPDK under injection.
var faultTestIDs = []string{"F5", "F6"}

// newPlan builds a fault plan or fails the test.
func newPlan(t *testing.T, profile string, seed int64) *faults.Plan {
	t.Helper()
	plan, err := faults.NewPlan(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runWithFaults(t *testing.T, id, profile string, seed int64, par int) string {
	t.Helper()
	return runInEnv(t, id, kernel.Env{Faults: newPlan(t, profile, seed)}, seed, par)
}

// runInEnv runs one experiment through the Runner inside env.
func runInEnv(t *testing.T, id string, env kernel.Env, seed int64, par int) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res := (&Runner{Parallelism: 1}).Run([]Experiment{e},
		Options{Quick: true, Seed: seed, Parallelism: par, Env: env})
	if res[0].Err != nil {
		t.Fatalf("%s: %v", id, res[0].Err)
	}
	return res[0].Report.String()
}

// TestFaultedRunsReplay is the PR's determinism criterion: with a
// fixed seed and profile, two runs of the same experiment render
// byte-identical reports.
func TestFaultedRunsReplay(t *testing.T) {
	for _, profile := range []string{"flaky-media", "revoke-storm"} {
		for _, id := range faultTestIDs {
			a := runWithFaults(t, id, profile, 7, 1)
			b := runWithFaults(t, id, profile, 7, 1)
			if a != b {
				t.Errorf("%s under %q: two runs with the same seed differ:\n--- first ---\n%s\n--- second ---\n%s",
					id, profile, a, b)
			}
		}
	}
}

// TestFaultedRunsParallelismInvariant extends the byte-identical
// guarantee to faulted runs: sweep-cell parallelism must not change a
// faulted report, because each cell's machines own private injectors.
func TestFaultedRunsParallelismInvariant(t *testing.T) {
	for _, id := range faultTestIDs {
		seq := runWithFaults(t, id, "chaos", 3, 1)
		par := runWithFaults(t, id, "chaos", 3, 8)
		if seq != par {
			t.Errorf("%s under chaos: report differs between -j 1 and -j 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq, par)
		}
	}
}

// TestRevokeStormParallelTranslation drives the translation fast path
// (WalkRange streaming, PWC lookups, indexed IOTLB invalidation)
// concurrently with fmap attach / revoke detach across parallel sweep
// cells under the revoke-storm profile. Each cell owns a private
// machine, so under -race this guards the fast path's data-sharing
// discipline (resident *Node pointers must never leak across cells);
// it also pins -j invariance for the revoke-heavy workload.
func TestRevokeStormParallelTranslation(t *testing.T) {
	for _, id := range faultTestIDs {
		seq := runWithFaults(t, id, "revoke-storm", 11, 1)
		par := runWithFaults(t, id, "revoke-storm", 11, 8)
		if seq != par {
			t.Errorf("%s under revoke-storm: report differs between -j 1 and -j 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq, par)
		}
	}
}

// TestCleanRunUnaffectedByPriorFaults guards the "disabled injector is
// structurally invisible" property: a clean run after a faulted run is
// byte-identical to a clean run before any profile was ever armed.
func TestCleanRunUnaffectedByPriorFaults(t *testing.T) {
	e, ok := ByID("F6")
	if !ok {
		t.Fatal("F6 not registered")
	}
	clean := func() string {
		res := (&Runner{Parallelism: 1}).Run([]Experiment{e},
			Options{Quick: true, Seed: 1, Parallelism: 1})
		if res[0].Err != nil {
			t.Fatalf("clean run: %v", res[0].Err)
		}
		return res[0].Report.String()
	}
	before := clean()
	plan := newPlan(t, "chaos", 1)
	faulted := runInEnv(t, "F6", kernel.Env{Faults: plan}, 1, 1)
	after := clean()
	if before != after {
		t.Errorf("clean report changed after a faulted run:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if faulted == before && plan.Total() == 0 {
		t.Log("chaos profile injected nothing into F6 (report identical); counters also zero")
	}
}

// TestRunUnknownFaultProfile: a typo'd profile must fail before any
// machine boots rather than silently running un-faulted. The plan is
// the only way to arm a profile, so it fails at construction.
func TestRunUnknownFaultProfile(t *testing.T) {
	plan, err := faults.NewPlan("no-such-profile", 1)
	if err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if !strings.Contains(err.Error(), "no-such-profile") {
		t.Fatalf("error %q does not name the bad profile", err)
	}
	if plan != nil {
		t.Fatal("unknown profile built a plan")
	}
}

// TestFaultCountersSurface: a profile with certain-fire rules must
// record counters an operator can inspect after the run, summed over
// every machine the run's plan armed.
func TestFaultCountersSurface(t *testing.T) {
	plan := newPlan(t, "flaky-media", 42)
	_ = runInEnv(t, "F6", kernel.Env{Faults: plan}, 42, 1)
	total := plan.Total()
	counts := plan.Counts()
	if total == 0 {
		t.Fatal("flaky-media run recorded no injected faults")
	}
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if sum != total {
		t.Fatalf("per-site counts sum to %d, total says %d", sum, total)
	}
}

// TestExperimentRunAppliesFaults: an experiment run directly — the
// call shape benchmarks and most tests use, with no Runner in between
// — must inject its Options' faults, and render exactly what the
// Runner path renders.
func TestExperimentRunAppliesFaults(t *testing.T) {
	e, ok := ByID("F6")
	if !ok {
		t.Fatal("F6 not registered")
	}
	plan := newPlan(t, "chaos", 3)
	rep, err := e.Run(Options{Quick: true, Seed: 3, Parallelism: 1, Env: kernel.Env{Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total() == 0 {
		t.Fatal("direct Experiment.Run under chaos injected no faults")
	}
	if via := runWithFaults(t, "F6", "chaos", 3, 1); rep.String() != via {
		t.Errorf("direct run differs from the Runner path:\n--- direct ---\n%s\n--- runner ---\n%s", rep, via)
	}
}
