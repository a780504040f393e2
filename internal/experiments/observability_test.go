package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// observedEnv is a run environment with tracing and metrics on.
func observedEnv() kernel.Env {
	return kernel.Env{Trace: trace.NewCollector(), Metrics: metrics.NewRegistry()}
}

// runObserved runs the given experiments with tracing and metrics on
// and returns (rendered reports, rendered trace, rendered metrics).
func runObserved(t *testing.T, parallelism int, ids ...string) (string, string, string) {
	t.Helper()
	rep, tr, met, err := runObservedIn(observedEnv(), parallelism, ids...)
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr, met
}

// runObservedIn is runObserved inside env, which must trace and
// collect metrics.
func runObservedIn(env kernel.Env, parallelism int, ids ...string) (string, string, string, error) {
	var reports strings.Builder
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return "", "", "", fmt.Errorf("experiment %s not registered", id)
		}
		rep, err := e.Run(Options{Quick: true, Seed: 1, Parallelism: parallelism, Env: env})
		if err != nil {
			return "", "", "", fmt.Errorf("%s: %v", id, err)
		}
		reports.WriteString(rep.String())
	}
	tr, err := env.Trace.Render()
	if err != nil {
		return "", "", "", fmt.Errorf("trace render: %v", err)
	}
	return reports.String(), string(tr), env.Metrics.Render(), nil
}

// TestObservabilityByteIdenticalAcrossParallelism extends the PR 1
// invariant to the observability plane: the rendered trace and the
// metrics registry must be byte-identical at -j 1 and -j 8, not just
// the reports.
func TestObservabilityByteIdenticalAcrossParallelism(t *testing.T) {
	ids := []string{"T6", "F6"}
	rep1, tr1, m1 := runObserved(t, 1, ids...)
	rep8, tr8, m8 := runObserved(t, 8, ids...)
	if rep1 != rep8 {
		t.Errorf("reports differ between -j 1 and -j 8")
	}
	if tr1 != tr8 {
		t.Errorf("trace differs between -j 1 and -j 8")
	}
	if m1 != m8 {
		t.Errorf("metrics differ between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", m1, m8)
	}
	if !strings.Contains(tr1, `"ph":"X"`) || !strings.Contains(tr1, `"process_name"`) {
		t.Fatalf("trace has no spans:\n%.400s", tr1)
	}
	if !strings.Contains(m1, "io_ops_total") || !strings.Contains(m1, "device_ops_total") {
		t.Fatalf("metrics registry missing expected series:\n%s", m1)
	}
}

// TestTracingDoesNotPerturbReports checks the observer effect is zero:
// a run with tracing and metrics on renders exactly the
// same report as a clean run (tracing charges no virtual time).
func TestTracingDoesNotPerturbReports(t *testing.T) {
	e, ok := ByID("F6")
	if !ok {
		t.Fatal("F6 not registered")
	}
	clean, err := e.Run(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	observed, err := e.Run(Options{Quick: true, Seed: 1, Env: observedEnv()})
	if err != nil {
		t.Fatal(err)
	}
	if clean.String() != observed.String() {
		t.Errorf("tracing perturbed the report:\n--- clean ---\n%s--- observed ---\n%s",
			clean.String(), observed.String())
	}
}

// TestConcurrentEnvsIsolated runs two differently scoped runs of F6
// at the same time: one under chaos with tracing and metrics on, one
// in the zero (clean) environment. Each must render byte-identically
// to its solo run — the clean report unfaulted, and the observed run's
// trace, registry and fault counts holding nothing from the clean run.
func TestConcurrentEnvsIsolated(t *testing.T) {
	chaos := func() kernel.Env {
		env := observedEnv()
		env.Faults = newPlan(t, "chaos", 1)
		return env
	}
	soloEnv := chaos()
	soloRep, soloTrace, soloMetrics, err := runObservedIn(soloEnv, 2, "F6")
	if err != nil {
		t.Fatal(err)
	}
	soloClean := runQuick(t, "F6").String()

	env := chaos()
	var rep, tr, met, clean string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var err error
		if rep, tr, met, err = runObservedIn(env, 2, "F6"); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		e, _ := ByID("F6")
		r, err := e.Run(Options{Quick: true, Seed: 1, Parallelism: 2})
		if err != nil {
			t.Error(err)
			return
		}
		clean = r.String()
	}()
	wg.Wait()

	if rep != soloRep {
		t.Errorf("chaos report differs from its solo run")
	}
	if clean != soloClean {
		t.Errorf("clean report differs from its solo run:\n--- concurrent ---\n%s--- solo ---\n%s", clean, soloClean)
	}
	if clean == rep {
		t.Errorf("chaos run rendered the clean report: faults did not apply")
	}
	if tr != soloTrace {
		t.Errorf("chaos trace differs from its solo run")
	}
	if met != soloMetrics {
		t.Errorf("chaos metrics differ from its solo run:\n--- concurrent ---\n%s--- solo ---\n%s", met, soloMetrics)
	}
	if got, want := env.Faults.Total(), soloEnv.Faults.Total(); got != want || got == 0 {
		t.Errorf("chaos run injected %d faults, solo %d", got, want)
	}
}

// TestT6Shape pins the Fig. 5-analogue attribution: the direct paths
// (BypassD, SPDK) spend far less in submit than the kernel interfaces,
// only BypassD pays visible translation, and media time — the same
// device — matches across all five.
func TestT6Shape(t *testing.T) {
	rep := runQuick(t, "T6")
	tb := rep.Tables[0]
	submit := func(iface string) float64 { return num(t, cell(t, tb, "submit (µs)", iface)) }
	media := func(iface string) float64 { return num(t, cell(t, tb, "media (µs)", iface)) }

	if b, s := submit("BypassD"), submit("BIO"); b > s/3 {
		t.Fatalf("BypassD submit %v not well below BIO %v", b, s)
	}
	if d, a := submit("SPDK"), submit("AIO"); d > a/3 {
		t.Fatalf("SPDK submit %v not well below AIO %v", d, a)
	}
	if tr := num(t, cell(t, tb, "translate (µs)", "BypassD")); tr <= 0 {
		t.Fatalf("BypassD translate = %v, want > 0 (ATS walk)", tr)
	}
	for _, iface := range []string{"BIO", "AIO", "SPDK", "XRP"} {
		if tr := num(t, cell(t, tb, "translate (µs)", iface)); tr != 0 {
			t.Fatalf("%s translate = %v, want 0 (physical addressing)", iface, tr)
		}
	}
	base := media("BypassD")
	for _, iface := range []string{"BIO", "AIO", "SPDK", "XRP"} {
		if m := media(iface); m < 0.9*base || m > 1.1*base {
			t.Fatalf("%s media %v diverges from BypassD media %v (same device!)", iface, m, base)
		}
	}
	// The cross-check column: attributed total == e2e mean (runT6
	// enforces 1%; the rendered values should agree to the shown
	// precision too).
	for _, iface := range []string{"BypassD", "BIO", "AIO", "SPDK", "XRP"} {
		tot := num(t, cell(t, tb, "total (µs)", iface))
		mean := num(t, cell(t, tb, "e2e mean (µs)", iface))
		if diff := tot - mean; diff < -0.05 || diff > 0.05 {
			t.Fatalf("%s: total %v vs e2e mean %v", iface, tot, mean)
		}
	}
}
