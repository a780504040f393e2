package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernel"
)

func TestParseReproSpec(t *testing.T) {
	cases := []struct {
		in   string
		want ReproSpec
	}{
		{"T7", ReproSpec{ID: "T7", Seed: 1}},
		{"T7@seed=9", ReproSpec{ID: "T7", Seed: 9}},
		{
			"T7:hogs=8,victim=bypassd,arbiter=wrr@seed=1,trial=3",
			ReproSpec{ID: "T7", Seed: 1, Trial: 3, Match: []ReproKV{
				{"hogs", "8"}, {"victim", "bypassd"}, {"arbiter", "wrr"},
			}},
		},
		{
			"F6:block_size=4KB,engine=bypassd@seed=-2,trials=5,faults=chaos,full",
			ReproSpec{ID: "F6", Seed: -2, Trials: 5, Faults: "chaos", Full: true, Match: []ReproKV{
				{"block size", "4KB"}, {"engine", "bypassd"},
			}},
		},
		// Keys are case-insensitive and '_' means ' '.
		{"T8:Offered=1341@seed=1", ReproSpec{ID: "T8", Seed: 1, Match: []ReproKV{{"offered", "1341"}}}},
		{"  T9  ", ReproSpec{ID: "T9", Seed: 1}},
	}
	for _, c := range cases {
		got, err := ParseReproSpec(c.in)
		if err != nil {
			t.Errorf("ParseReproSpec(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseReproSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}

	bad := []string{
		"",              // no id
		"T7:",           // empty match section
		"T7:hogs",       // match without '='
		"T7:hogs=",      // empty value
		"T7:=8",         // empty key
		"T7:a=b=c",      // '=' in value
		"T7@",           // empty options
		"T7@bogus=1",    // unknown option
		"T7@trial=-1",   // negative trial
		"T7@trials=0",   // trials below 1
		"T7@seed=abc",   // non-numeric seed
		"T7@full=yes",   // full takes no value
		"T7@faults=a b", // faults name with space
		"bad id@seed=1", // space in id
	}
	for _, in := range bad {
		if sp, err := ParseReproSpec(in); err == nil {
			t.Errorf("ParseReproSpec(%q) = %+v, want error", in, sp)
		}
	}
}

func TestReproSpecCanonical(t *testing.T) {
	cases := map[string]string{
		"T7":                              "T7@seed=1",
		"T7@seed=1,trial=0,trials=1":      "T7@seed=1",
		"t7:Block_Size=4KB@full,seed=3":   "t7:block_size=4KB@seed=3,full",
		"T8:offered=1341@trial=2,seed=-4": "T8:offered=1341@seed=-4,trial=2",
	}
	for in, want := range cases {
		sp, err := ParseReproSpec(in)
		if err != nil {
			t.Fatalf("ParseReproSpec(%q): %v", in, err)
		}
		if got := sp.String(); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
		// Canonical form is a fixed point.
		again, err := ParseReproSpec(sp.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", sp.String(), err)
		}
		if again.String() != sp.String() {
			t.Errorf("canonical %q not a fixed point: reparses to %q", sp.String(), again.String())
		}
	}
}

// A single-trial spec's workload seed is Seed + Trial*stride, so
// seed=1000004 and seed=1,trial=1 name the same replay. Parsing must
// fold the aliased form to canonical (base seed, trial index)
// coordinates — and leave multi-trial specs, which aggregate from the
// base seed, alone.
func TestReproSpecSeedAliasing(t *testing.T) {
	aliased, err := ParseReproSpec("T7@seed=1000004")
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := ParseReproSpec("T7@seed=1,trial=1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aliased, canonical) {
		t.Fatalf("aliased spec %+v != canonical %+v", aliased, canonical)
	}
	if aliased.Seed != 1 || aliased.Trial != 1 {
		t.Fatalf("seed=1000004 folded to (seed=%d, trial=%d), want (1, 1)", aliased.Seed, aliased.Trial)
	}
	if got := aliased.String(); got != "T7@seed=1,trial=1" {
		t.Fatalf("canonical render = %q, want %q", got, "T7@seed=1,trial=1")
	}

	cases := map[string]string{
		// q strides fold out of the seed and into the trial index.
		"T7@seed=1000004":                  "T7@seed=1,trial=1",
		"T7@seed=2000007,trial=2":          "T7@seed=1,trial=4",
		"T7@seed=1000003":                  "T7@seed=1000003", // stride itself is a base seed
		"T7@seed=1000004,trial=0":          "T7@seed=1,trial=1",
		"T8:engine=sync@seed=3000010,full": "T8:engine=sync@seed=1,trial=3,full",
		// Multi-trial specs aggregate from the base seed: no fold.
		"T8@seed=1000004,trials=3": "T8@seed=1000004,trials=3",
		// Negative and small seeds are already canonical.
		"T7@seed=-2000007": "T7@seed=-2000007",
		"T7@seed=7":        "T7@seed=7",
	}
	for in, want := range cases {
		sp, err := ParseReproSpec(in)
		if err != nil {
			t.Fatalf("ParseReproSpec(%q): %v", in, err)
		}
		if got := sp.String(); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}

	// The fold preserves the derived workload seed — the whole point.
	o := Options{Seed: 1}
	if got := o.TrialSeed(aliased.Trial); got != 1000004 {
		t.Fatalf("derived seed after fold = %d, want 1000004", got)
	}

	// A seed too large to fold (trial index would overflow) parses and
	// round-trips untouched rather than wrapping negative.
	huge := "T7@seed=9223372036854775807,trial=9223372036854775807"
	sp, err := ParseReproSpec(huge)
	if err != nil {
		t.Fatalf("ParseReproSpec(%q): %v", huge, err)
	}
	if sp.Trial <= 0 {
		t.Fatalf("overflow guard failed: trial = %d", sp.Trial)
	}
	again, err := ParseReproSpec(sp.String())
	if err != nil || !reflect.DeepEqual(sp, again) {
		t.Fatalf("huge spec does not round-trip: %+v vs %+v (err %v)", sp, again, err)
	}
}

func TestRunReproErrors(t *testing.T) {
	if _, err := RunRepro(ReproSpec{ID: "Z9", Seed: 1}, 1, kernel.Env{}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown id error missing, got %v", err)
	}
	sp, err := ParseReproSpec("T7:hogs=777@seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRepro(sp, 1, kernel.Env{}); err == nil || !strings.Contains(err.Error(), "matched no rows") {
		t.Fatalf("no-match error missing, got %v", err)
	}
}

// A trials=N spec replays the whole aggregation: the matched row must
// come from the multi-trial table, CI columns included.
func TestRunReproAggregated(t *testing.T) {
	sp, err := ParseReproSpec("T7:hogs=8,victim=bypassd,arbiter=wrr@seed=1,trials=3")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunRepro(sp, 2, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if run.DerivedSeed != 1 {
		t.Fatalf("aggregated replay must run at the base seed, got %d", run.DerivedSeed)
	}
	if len(run.Matches) != 1 {
		t.Fatalf("matched %d rows, want 1", len(run.Matches))
	}
	if !strings.Contains(run.Matches[0].Table, "3 trials") {
		t.Fatalf("matched table %q is not the aggregated one", run.Matches[0].Table)
	}
	found := false
	for _, h := range run.Matches[0].Headers {
		if h == "p99 ci95" {
			found = true
		}
	}
	if !found {
		t.Fatalf("aggregated row missing CI column: %v", run.Matches[0].Headers)
	}
}

func TestHeaderKey(t *testing.T) {
	cases := map[string]string{
		"p99 (µs)":    "p99",
		"SLO met (%)": "slo met",
		"arbiter":     "arbiter",
		"p99 ci95":    "p99 ci95",
	}
	for in, want := range cases {
		if got := headerKey(in); got != want {
			t.Errorf("headerKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzReproSpec: the parser must never panic, and any input it
// accepts must canonicalize to a fixed point — parse(s).String()
// reparses to the same canonical string. This is what lets gates
// embed specs in test output and tooling pass them around without a
// second escaping layer.
func FuzzReproSpec(f *testing.F) {
	for _, s := range []string{
		"T7",
		"T7:hogs=8,victim=bypassd,arbiter=wrr@seed=1,trial=3",
		"F6:block_size=4KB,engine=bypassd@seed=1",
		"T8:offered=1341,engine=sync@seed=-7,trials=5,faults=chaos,full",
		"F9:threads=16,engine=io_uring@seed=1,full",
		"T7@seed=9223372036854775807",
		"T7@seed=1000004",
		"T7@seed=2000007,trial=2",
		"T8:engine=sync@seed=1000004,trials=3",
		"T7@seed=9223372036854775807,trial=9223372036854775807",
		"x:a=b", ":", "@", "a@full", "a:b=c@seed=1,seed=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseReproSpec(in)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		canon := sp.String()
		sp2, err := ParseReproSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q fails to reparse: %v", canon, in, err)
		}
		if got := sp2.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", in, canon, got)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("reparse of %q changed the spec: %+v vs %+v", canon, sp, sp2)
		}
	})
}
