package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The tests in this file pin the guards on Sleep's fast-forward: a
// sleeping proc keeps running only when its wakeup would be the very
// next event dispatched, and never where the dispatch loop would have
// done something else first.

// TestFastForwardCountsEvents: a lone sleeping proc never parks, yet
// every sleep still counts as one processed event and advances the
// clock, exactly as a posted-and-popped wakeup would.
func TestFastForwardCountsEvents(t *testing.T) {
	s := New()
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(3)
		}
	})
	s.Run()
	if got := s.Processed(); got != 101 {
		t.Fatalf("processed %d events, want 101 (spawn + 100 sleeps)", got)
	}
	if s.Now() != 300 {
		t.Fatalf("clock %v, want 300", s.Now())
	}
	s.Shutdown()
}

// TestFastForwardStopsAtRunUntilBound: a sleep landing past RunUntil's
// bound parks, so the proc's next step waits for a later Run.
func TestFastForwardStopsAtRunUntilBound(t *testing.T) {
	s := New()
	var log []string
	s.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		log = append(log, fmt.Sprintf("a@%d", p.Now()))
		p.Sleep(20)
		log = append(log, fmt.Sprintf("b@%d", p.Now()))
	})
	if n := s.RunUntil(10); n != 2 {
		t.Fatalf("RunUntil(10) processed %d events, want 2 (spawn + first wakeup)", n)
	}
	if !slices.Equal(log, []string{"a@5"}) || s.Now() != 10 {
		t.Fatalf("after RunUntil(10): log %v, clock %v; want [a@5] at 10", log, s.Now())
	}
	s.Run()
	if !slices.Equal(log, []string{"a@5", "b@25"}) || s.Processed() != 3 {
		t.Fatalf("after Run: log %v, processed %d; want [a@5 b@25], 3", log, s.Processed())
	}
	s.Shutdown()
}

// TestFastForwardCoupledTie: under the coupled scheduler an equal-time
// event on a lower shard dispatches first, so a proc sleeping into that
// tie on a higher shard must park; on the lower shard it wins the tie.
func TestFastForwardCoupledTie(t *testing.T) {
	for _, procShard := range []int{0, 1} {
		s := New()
		s.AddShard()
		var log []string
		s.AtOn(1-procShard, 10, func() { log = append(log, fmt.Sprintf("fn%d@%d", 1-procShard, s.Now())) })
		s.SpawnOn(procShard, "p", func(p *Proc) {
			p.Sleep(10)
			log = append(log, fmt.Sprintf("p%d@%d", procShard, p.Now()))
		})
		s.Run()
		want := []string{"p0@10", "fn1@10"}
		if procShard == 1 {
			want = []string{"fn0@10", "p1@10"}
		}
		if !slices.Equal(log, want) || s.Processed() != 3 {
			t.Fatalf("proc on shard %d: order %v, processed %d; want %v, 3", procShard, log, s.Processed(), want)
		}
		s.Shutdown()
	}
}

// TestFastForwardOffDuringShutdown: a proc whose defer sleeps while
// Shutdown unwinds it must still park, so the unwind stops it there
// instead of running the rest of the defer.
func TestFastForwardOffDuringShutdown(t *testing.T) {
	s := New()
	c := s.NewCond()
	var ran []string
	s.Spawn("p", func(p *Proc) {
		defer func() {
			ran = append(ran, "defer")
			p.Sleep(1)
			ran = append(ran, "after-sleep")
		}()
		c.Wait(p)
	})
	s.Run()
	s.Shutdown()
	if !slices.Equal(ran, []string{"defer"}) {
		t.Fatalf("unwind ran %v, want [defer]", ran)
	}
	if s.Live() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", s.Live())
	}
}

// TestFastForwardOffWhenArmedMidRun: a proc that arms the parallel
// engine and then sleeps must park, because Run's next iteration
// switches to shard drains. Its wakeup then runs inside its shard's
// drain, with the global clock held at the arming instant.
func TestFastForwardOffWhenArmedMidRun(t *testing.T) {
	s := New()
	s.AddShard()
	var drained bool
	var global Time
	s.SpawnOn(0, "armer", func(p *Proc) {
		p.Sleep(3)
		s.SetParallel(2)
		p.Sleep(5)
		drained, global = s.shards[0].draining, s.Now()
	})
	s.Run()
	if !drained || global != 3 {
		t.Fatalf("after sleeping armed: in drain %v, global clock %v; want true, 3", drained, global)
	}
	if s.Now() != 8 || s.Processed() != 3 {
		t.Fatalf("final clock %v, processed %d; want 8, 3", s.Now(), s.Processed())
	}
	s.Shutdown()
}

// TestFastForwardSleepZeroYields: Sleep(0) with events already queued
// at the current instant parks behind them, as Yield promises.
func TestFastForwardSleepZeroYields(t *testing.T) {
	s := New()
	var log []string
	s.Spawn("a", func(p *Proc) {
		s.After(0, func() { log = append(log, "fn") })
		p.Sleep(0)
		log = append(log, "a")
		p.Sleep(0) // nothing else queued: keeps running
		log = append(log, "a2")
	})
	s.Spawn("b", func(p *Proc) { log = append(log, "b") })
	s.Run()
	want := []string{"b", "fn", "a", "a2"}
	if !slices.Equal(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	if s.Processed() != 5 {
		t.Fatalf("processed %d, want 5", s.Processed())
	}
	s.Shutdown()
}
