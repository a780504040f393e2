package main

import (
	"strings"
	"testing"
)

// speedupRun is a parsed run carrying the sharded storm at 1 and 4
// workers, 1.5x apart on events/sec.
func speedupRun(t *testing.T) benchRun {
	t.Helper()
	run, err := parseBench(strings.NewReader(`
BenchmarkSimThroughputSharded/w1-4   5   2000000 ns/op   1000000 events/sec
BenchmarkSimThroughputSharded/w4-4   5   1400000 ns/op   1500000 events/sec
`))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestCheckSpeedup covers both sides of the core threshold: a missing
// benchmark fails whether or not the floor is enforced, and below the
// threshold the measured ratio is printed but never fails the gate.
func TestCheckSpeedup(t *testing.T) {
	const (
		enforce = 1       // every host has at least one CPU
		skip    = 1 << 20 // no host has this many
	)
	cases := []struct {
		name     string
		spec     string
		minCores int
		fails    int
		want     string
	}{
		{"missing/enforced", "SimThroughputSharded/w8:SimThroughputSharded/w1:1", enforce, 1, "benchmark missing"},
		{"missing/below-cores", "SimThroughputSharded/w8:SimThroughputSharded/w1:1", skip, 1, "benchmark missing"},
		{"malformed/below-cores", "SimThroughputSharded/w4", skip, 1, "want numerator:denominator:min"},
		{"under-floor/enforced", "SimThroughputSharded/w4:SimThroughputSharded/w1:2.5", enforce, 1, "FAIL  speedup"},
		{"over-floor/enforced", "SimThroughputSharded/w4:SimThroughputSharded/w1:1.2", enforce, 0, "1.50x on events/sec (floor 1.20x)"},
		{"under-floor/below-cores", "SimThroughputSharded/w4:SimThroughputSharded/w1:2.5", skip, 0, "1.50x on events/sec, not enforced on"},
	}
	run := speedupRun(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := checkSpeedup(&out, run, tc.spec, tc.minCores); got != tc.fails {
				t.Errorf("checkSpeedup = %d failures, want %d; output:\n%s", got, tc.fails, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output %q lacks %q", out.String(), tc.want)
			}
		})
	}
}
