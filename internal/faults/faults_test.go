package faults

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Fire("device/x/media") {
		t.Fatal("nil injector fired")
	}
	if _, ok := inj.FireDelayQ("device/x/delay", 3); ok {
		t.Fatal("nil injector fired delay")
	}
	if inj.Total() != 0 || inj.Counts() != nil {
		t.Fatal("nil injector reported state")
	}
}

func TestPeriodAndOneShot(t *testing.T) {
	inj := NewInjector(1, []Rule{
		{Site: "a", Period: 3},
		{Site: "b", Count: 1},
		{Site: "c", Start: 2},
	})
	var fires []bool
	for i := 0; i < 9; i++ {
		fires = append(fires, inj.Fire("a"))
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	if !reflect.DeepEqual(fires, want) {
		t.Fatalf("period fires = %v, want %v", fires, want)
	}
	if !inj.Fire("b") || inj.Fire("b") || inj.Fire("b") {
		t.Fatal("one-shot rule did not fire exactly once")
	}
	if inj.Fire("c") || inj.Fire("c") {
		t.Fatal("rule fired before Start decisions passed")
	}
	if !inj.Fire("c") {
		t.Fatal("rule did not fire after Start")
	}
}

func TestDefaultRuleFiresAlways(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "x"}})
	for i := 0; i < 5; i++ {
		if !inj.Fire("x") {
			t.Fatalf("decision %d did not fire", i)
		}
	}
	if inj.Total() != 5 {
		t.Fatalf("total = %d, want 5", inj.Total())
	}
}

func TestGlobMatchAndQueueFilter(t *testing.T) {
	inj := NewInjector(1, []Rule{
		{Site: "device/*", Queue: 2},
	})
	if inj.FireQ("device/optane/media", 1) {
		t.Fatal("fired on wrong queue")
	}
	if !inj.FireQ("device/optane/media", 2) || !inj.FireQ("device/zssd/timeout", 2) {
		t.Fatal("glob rule did not match device sites on queue 2")
	}
	if inj.Fire("iommu/fault") {
		t.Fatal("glob rule leaked outside its prefix")
	}

	mid := NewInjector(1, []Rule{{Site: "device/*/media"}})
	if !mid.Fire("device/optane-p5800x/media") {
		t.Fatal("mid-glob did not match a device media site")
	}
	if mid.Fire("device/optane-p5800x/timeout") {
		t.Fatal("mid-glob matched the wrong site kind")
	}
	if mid.Fire("device/media") {
		t.Fatal("mid-glob matched a site missing the wildcard segment")
	}
}

func TestDelayPayload(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "d", Delay: 50 * sim.Microsecond}})
	dl, ok := inj.FireDelay("d")
	if !ok || dl != 50*sim.Microsecond {
		t.Fatalf("delay = %v, %v", dl, ok)
	}
}

func TestProbabilityDeterministicReplay(t *testing.T) {
	run := func() []bool {
		inj := NewInjector(42, []Rule{{Site: "p", Prob: 0.3}})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, inj.Fire("p"))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.3 fired %d/%d times", fired, len(a))
	}
	c := NewInjector(43, []Rule{{Site: "p", Prob: 0.3}})
	var other []bool
	for i := 0; i < 200; i++ {
		other = append(other, c.Fire("p"))
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestProbabilityStreamIndependentOfOtherSites(t *testing.T) {
	// Decisions on unrelated sites must not consume PRNG draws.
	a := NewInjector(7, []Rule{{Site: "p", Prob: 0.5}})
	b := NewInjector(7, []Rule{{Site: "p", Prob: 0.5}})
	var sa, sb []bool
	for i := 0; i < 100; i++ {
		a.Fire("unrelated/site")
		sa = append(sa, a.Fire("p"))
		sb = append(sb, b.Fire("p"))
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("unrelated decisions perturbed the probability stream")
	}
}

func TestCounts(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "a"}, {Site: "b", Period: 2}})
	inj.Fire("a")
	inj.Fire("a")
	inj.Fire("b")
	inj.Fire("b")
	got := inj.Counts()
	if got["a"] != 2 || got["b"] != 1 || inj.Total() != 3 {
		t.Fatalf("counts = %v, total = %d", got, inj.Total())
	}
}

func TestPlanBuildsInjectors(t *testing.T) {
	if _, err := NewPlan("no-such-profile", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	var none *Plan
	if none.NewInjector() != nil || none.Total() != 0 || none.Counts() != nil {
		t.Fatal("nil plan is not inert")
	}
	pl, err := NewPlan("flaky-media", 9)
	if err != nil {
		t.Fatal(err)
	}
	if pl.prof.Name != "flaky-media" || pl.seed != 9 {
		t.Fatalf("plan = %s at seed %d", pl.prof.Name, pl.seed)
	}
	// Two machines booted under one plan draw identical streams.
	a, b := pl.NewInjector(), pl.NewInjector()
	for i := 0; i < 200; i++ {
		if a.FireQ("device/x/media", 1) != b.FireQ("device/x/media", 1) {
			t.Fatalf("decision %d differs between injectors of one plan", i)
		}
	}
}

func TestPlanSumsInjectorCounts(t *testing.T) {
	pl, err := NewPlan("revoke-storm", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pl.NewInjector(), pl.NewInjector()
	for i := 0; i < 500; i++ {
		a.Fire(SiteKernelRevoke)
		b.Fire(SiteKernelFmapZero)
	}
	if pl.Total() != a.Total()+b.Total() || pl.Total() == 0 {
		t.Fatalf("plan total = %d, injectors %d + %d", pl.Total(), a.Total(), b.Total())
	}
	got := pl.Counts()
	if got[SiteKernelRevoke] != a.Counts()[SiteKernelRevoke] || got[SiteKernelFmapZero] != b.Counts()[SiteKernelFmapZero] {
		t.Fatalf("plan counts = %v", got)
	}
}

func TestProfilesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if p.Name == "" || p.Desc == "" || len(p.Rules) == 0 {
			t.Fatalf("malformed profile %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		for _, r := range p.Rules {
			if r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("profile %s rule %q has prob %v", p.Name, r.Site, r.Prob)
			}
			if r.Site == "" {
				t.Fatalf("profile %s has an empty site", p.Name)
			}
		}
		if _, ok := ProfileByName(p.Name); !ok {
			t.Fatalf("ProfileByName(%q) failed", p.Name)
		}
	}
}
