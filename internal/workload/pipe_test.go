package workload

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestPipeServesEveryArrival: one arrival at t=100 is shed at the
// door, eleven more land together at t=200 in three classes, and two
// servers drain them — round-robin across the classes, each request
// once, with the window, sojourn, SLO and backlog accounting that
// schedule implies.
func TestPipeServesEveryArrival(t *testing.T) {
	s := sim.New()
	var res Served
	p := NewPipe[int](PipeConfig{Sim: s, Classes: 3, SLO: 600, Fail: func(err error) { t.Fatal(err) }}, &res)
	gap := func(now sim.Time) sim.Time {
		if now < 200 {
			return 100
		}
		return 0
	}
	p.Generate("gen", 12, gap, func(i int, _ sim.Time) (int, int, bool) { return i, i / 4, i != 0 })
	var order []int
	idle := 0
	for w := 0; w < 2; w++ {
		p.Serve("srv", func(*sim.Proc) (ServeFunc[int], error) {
			return func(w *sim.Proc, _ sim.Time, req int) (bool, error) {
				order = append(order, req)
				if req == 7 {
					return false, nil // shed at dequeue
				}
				w.Sleep(300)
				return true, nil
			}, nil
		}, func() { idle++ })
	}
	s.Run()

	if got, want := fmt.Sprint(order), "[1 4 8 2 5 9 3 6 10 7 11]"; got != want {
		t.Fatalf("service order %s, want %s", got, want)
	}
	// The window opens at the first arrival, shed or not; ten are
	// served from t=200 in five rounds of two: sojourns 300, 300, 600,
	// ... 1500, so an SLO of exactly 600 is met by four.
	if res.Start != 100 || res.End != 1700 || res.Completed != 10 || res.SLOMet != 4 ||
		res.PeakBacklog != 11 || res.Sojourn.Count() != 10 || res.Sojourn.Mean() != 900 {
		t.Fatalf("served %+v, sojourn mean %v", res, res.Sojourn.Mean())
	}
	if idle == 0 {
		t.Fatal("idle hook never ran")
	}
}

// TestPipeAbort: a server that cannot open aborts the pipe — the
// generator stops offering and the run ends without serving.
func TestPipeAbort(t *testing.T) {
	s := sim.New()
	var res Served
	var failed []error
	p := NewPipe[int](PipeConfig{Sim: s, Fail: func(err error) { failed = append(failed, err) }}, &res)
	offered := 0
	p.Generate("gen", 1000, func(sim.Time) sim.Time { return 10 },
		func(int, sim.Time) (int, int, bool) { offered++; return 0, 0, true })
	p.Serve("srv", func(w *sim.Proc) (ServeFunc[int], error) {
		w.Sleep(55)
		return nil, errors.New("no device")
	}, nil)
	s.Run()
	if len(failed) != 1 || res.Completed != 0 {
		t.Fatalf("failures %v, completed %d", failed, res.Completed)
	}
	if offered >= 1000 {
		t.Fatal("generator kept offering after the abort")
	}
}

// TestServedMerge: merging widens the window over set starts, sums the
// counts, keeps the larger peak and merges the histograms.
func TestServedMerge(t *testing.T) {
	a := Served{Start: 50, End: 90, Completed: 2, SLOMet: 1, Bursts: 1, PeakBacklog: 4, Sojourn: stats.NewHistogram()}
	a.Sojourn.Add(10)
	a.Sojourn.Add(20)
	b := Served{Start: 30, End: 70, Completed: 1, PeakBacklog: 7, Sojourn: stats.NewHistogram()}
	b.Sojourn.Add(30)
	var t0 Served
	for _, s := range []*Served{{Sojourn: stats.NewHistogram()}, &a, &b} {
		t0.Merge(s)
	}
	if t0.Start != 30 || t0.End != 90 || t0.Completed != 3 || t0.SLOMet != 1 || t0.Bursts != 1 ||
		t0.PeakBacklog != 7 || t0.Sojourn.Count() != 3 {
		t.Fatalf("merged %+v", t0)
	}
	if got := t0.SLOPct(100); got != 100*1.0/3 {
		t.Fatalf("SLOPct = %v", got)
	}
	if got := t0.SLOPct(0); got != 100 {
		t.Fatalf("SLOPct without an SLO = %v", got)
	}
}

// TestResolve: builtins resolve by name, anything else is a config
// file read strictly.
func TestResolve(t *testing.T) {
	type cfg struct {
		Name string `json:"name"`
		Rate int    `json:"rate"`
	}
	builtins := []cfg{{"a", 1}, {"b", 2}}
	name := func(c cfg) string { return c.Name }
	if got, err := Resolve("b", builtins, name); err != nil || got.Rate != 2 {
		t.Fatalf("builtin: %+v, %v", got, err)
	}
	dir := t.TempDir()
	for file, tc := range map[string]struct {
		body string
		ok   bool
	}{
		"good.json":     {`{"name": "c", "rate": 3}` + "\n", true},
		"typo.json":     {`{"name": "c", "rat": 3}`, false},
		"trailing.json": {`{"name": "c"} {"name": "d"}`, false},
		"garbage.json":  {`{"name": "c"} ]`, false},
	} {
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Resolve(path, builtins, name)
		if (err == nil) != tc.ok || (tc.ok && got != (cfg{"c", 3})) {
			t.Errorf("%s: %+v, %v", file, got, err)
		}
	}
	if _, err := Resolve(filepath.Join(dir, "missing.json"), builtins, name); err == nil {
		t.Error("missing file resolved")
	}
}
