package main

import (
	"testing"
	"time"

	"repro/internal/sim"
)

var spinSink uint64

// spin burns CPU in this package's own frames for d.
func spin(d time.Duration) {
	x := spinSink | 1
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestProfiledChargesTheDriver(t *testing.T) {
	r := &run{vals: map[string]float64{}}
	if err := profiled(r, func() { spin(time.Second) }); err != nil {
		t.Fatal(err)
	}
	if r.vals["profile.samples"] < 5 {
		t.Fatalf("only %v samples", r.vals["profile.samples"])
	}
	if got := r.vals["driver.cpu_pct"]; got < 80 {
		t.Errorf("driver.cpu_pct = %.1f, want most of a pure driver spin", got)
	}
	if got := r.vals["profile.coverage_pct"]; got < 95 {
		t.Errorf("profile.coverage_pct = %.1f", got)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chanrecv":                      "runtime",
		"internal/runtime/maps.(*Map).Get":      "runtime",
		"repro/internal/sim.(*Sim).dispatch":    "sim",
		"repro/internal/ext4.(*FS).Check.func1": "ext4",
		"main.(*rwMix).step":                    "driver",
		"sort.Slice":                            "",
		"internal/bytealg.IndexByte":            "",
		"repro/internal/unknown.F":              "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBlockImages(t *testing.T) {
	buf := make([]byte, rwBlock)
	fillBlock(buf, 7, 0, 12, 3)
	if !blockOK(buf, 7, 0, 12, 3) {
		t.Fatal("image does not verify")
	}
	for _, c := range []struct {
		seed      int64
		file, blk int
		ver       uint32
	}{{8, 0, 12, 3}, {7, 1, 12, 3}, {7, 0, 13, 3}, {7, 0, 12, 2}} {
		if blockOK(buf, c.seed, c.file, c.blk, c.ver) {
			t.Errorf("image of (7,0,12,3) verifies as %+v", c)
		}
	}
	buf[rwBlock-1] ^= 1
	if blockOK(buf, 7, 0, 12, 3) {
		t.Error("a flipped last byte verifies")
	}
}

func TestPercentiles(t *testing.T) {
	lat := []sim.Time{5000, 1000, 3000, 2000, 4000}
	if got := percentileUS(lat, 50); got != 3 {
		t.Errorf("p50 = %v µs, want 3", got)
	}
	if got := percentileUS(lat, 99.9); got != 5 {
		t.Errorf("p99.9 = %v µs, want 5", got)
	}
	xs := []float64{10, 40, 20, 30}
	if got := percentile(xs, 90); got != 40 {
		t.Errorf("p90 = %v, want 40", got)
	}
	if got := percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	if got := median(xs); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
}
