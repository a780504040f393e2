package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepMapPreservesOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		got, err := sweepMap(Options{Parallelism: par}, 17, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != 17 {
			t.Fatalf("par=%d: len=%d", par, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: got[%d]=%d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestSweepMapEmpty(t *testing.T) {
	got, err := sweepMap(Options{Parallelism: 8}, 0, func(i int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestSweepMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		_, err := sweepMap(Options{Parallelism: par}, 10, func(i int) (int, error) {
			if i == 3 {
				return 0, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("par=%d: err=%v, want wrapped boom", par, err)
		}
	}
}

// TestSweepMapRunsEveryCellOnFailure: a failing sweep still runs every
// cell exactly once and returns the lowest-index error, whichever cell
// failed first on the host, so its side effects (metrics, fault
// counts) do not depend on -j.
func TestSweepMapRunsEveryCellOnFailure(t *testing.T) {
	const n = 200
	for _, par := range []int{1, 2, 4} {
		var calls [n]atomic.Int64
		_, err := sweepMap(Options{Parallelism: par}, n, func(i int) (int, error) {
			calls[i].Add(1)
			if i%50 == 7 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("par=%d: err=%v, want the lowest-index failure (cell 7)", par, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("par=%d: cell %d ran %d times, want 1", par, i, c)
			}
		}
	}
}

func TestRunnerIndexAligned(t *testing.T) {
	// Experiments that finish in reverse submission order must still
	// report in submission order.
	var exps []Experiment
	for i := 0; i < 6; i++ {
		i := i
		exps = append(exps, Experiment{
			ID: fmt.Sprintf("X%d", i),
			Run: func(o Options) (*Report, error) {
				time.Sleep(time.Duration(6-i) * time.Millisecond)
				return &Report{ID: fmt.Sprintf("X%d", i)}, nil
			},
		})
	}
	var done atomic.Int64
	r := &Runner{Parallelism: 6, OnDone: func(RunResult) { done.Add(1) }}
	results := r.Run(exps, Options{})
	if len(results) != 6 {
		t.Fatalf("len=%d", len(results))
	}
	for i, res := range results {
		want := fmt.Sprintf("X%d", i)
		if res.Err != nil || res.Report.ID != want {
			t.Fatalf("results[%d] = %v (err %v), want %s", i, res.Report, res.Err, want)
		}
		if res.Experiment.ID != want {
			t.Fatalf("results[%d].Experiment = %s, want %s", i, res.Experiment.ID, want)
		}
	}
	if done.Load() != 6 {
		t.Fatalf("OnDone fired %d times, want 6", done.Load())
	}
}

func TestRunnerKeepsErrorsPerExperiment(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok", Run: func(Options) (*Report, error) { return &Report{ID: "ok"}, nil }},
		{ID: "bad", Run: func(Options) (*Report, error) { return nil, boom }},
	}
	results := (&Runner{Parallelism: 2}).Run(exps, Options{})
	if results[0].Err != nil || results[0].Report.ID != "ok" {
		t.Fatalf("results[0] = %+v", results[0])
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("results[1].Err = %v", results[1].Err)
	}
}

// TestParallelReportsByteIdentical is the PR's core acceptance
// criterion: for every registered experiment, the rendered report at
// Parallelism 8 must equal the sequential one byte for byte.
func TestParallelReportsByteIdentical(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			seq, err := e.Run(Options{Quick: true, Seed: 1, Parallelism: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := e.Run(Options{Quick: true, Seed: 1, Parallelism: 8})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if seq.String() != par.String() {
				t.Errorf("report differs between -j 1 and -j 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.String(), par.String())
			}
		})
	}
}

func TestHeadline(t *testing.T) {
	rep := runQuick(t, "F5")
	h := rep.Headline()
	if h == "" {
		t.Fatal("empty headline")
	}
	if want := "translations=1"; len(h) < len(want) || h[:len(want)] != want {
		t.Fatalf("headline = %q, want prefix %q", h, want)
	}
	empty := &Report{}
	if empty.Headline() != "" {
		t.Fatalf("empty report headline = %q", empty.Headline())
	}
}
