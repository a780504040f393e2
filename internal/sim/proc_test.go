package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestShutdownUnwindsEveryProcState stops procs in every state Shutdown
// can meet — never started, parked on a Cond, idle in the free pool,
// parked inside a deferred function, and parking again from a defer
// while the killed unwind runs — and checks that every defer ran, no
// proc is left live, and every proc coroutine exited.
func TestShutdownUnwindsEveryProcState(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	c := s.NewCond()
	var ran []string
	mark := func(name string) { ran = append(ran, name) }
	var started, lateRan bool

	s.SpawnAt(1000, "future", func(p *Proc) { started = true })
	s.Spawn("waiter", func(p *Proc) {
		defer mark("waiter")
		c.Wait(p)
		t.Error("waiter woke")
	})
	s.Spawn("finisher", func(p *Proc) {
		defer mark("finisher")
		p.Sleep(1)
	})
	s.Spawn("defer-park", func(p *Proc) {
		defer mark("defer-park")
		defer func() {
			mark("parking")
			c.Wait(p)
			t.Error("defer-park woke")
		}()
		p.Sleep(2)
	})
	s.Spawn("unwind-park", func(p *Proc) {
		defer func() {
			mark("unwind-park")
			p.Spawn("late", func(q *Proc) { lateRan = true })
		}()
		defer func() { c.Wait(p) }()
		c.Wait(p)
	})
	s.RunUntil(10)
	if got := s.Live(); got != 4 {
		t.Fatalf("live before shutdown = %d, want 4 (future, waiter, defer-park, unwind-park)", got)
	}
	s.Shutdown()

	if s.Live() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", s.Live())
	}
	if started || lateRan {
		t.Fatalf("unstarted procs ran during shutdown: future=%v late=%v", started, lateRan)
	}
	slices.Sort(ran)
	want := []string{"defer-park", "finisher", "parking", "unwind-park", "waiter"}
	if !slices.Equal(ran, want) {
		t.Fatalf("defers run = %v, want %v", ran, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after shutdown, want baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcPanicPropagatesFromRun pins that a proc's panic surfaces from
// Run on the caller's goroutine with its original value, and that the
// simulation can still be shut down afterwards.
func TestProcPanicPropagatesFromRun(t *testing.T) {
	type boom struct{ n int }
	s := New()
	s.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic(boom{7})
	})
	r := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if r != (boom{7}) {
		t.Fatalf("Run panicked with %#v, want boom{7}", r)
	}
	s.Shutdown()
	if s.Live() != 1 { // the panicked proc never finished
		t.Fatalf("live after shutdown = %d, want 1", s.Live())
	}
}

// TestProcGoexitPropagates pins that runtime.Goexit inside a proc —
// what t.FailNow does — ends the goroutine that called Run instead of
// hanging the simulation or letting Run return.
func TestProcGoexitPropagates(t *testing.T) {
	exited := make(chan bool, 1)
	go func() {
		returned := false
		defer func() { exited <- returned }()
		s := New()
		s.Spawn("exit", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		s.Run()
		returned = true
	}()
	select {
	case returned := <-exited:
		if returned {
			t.Fatal("Run returned normally after runtime.Goexit in a proc")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after runtime.Goexit in a proc")
	}
}

// BenchmarkProcSwitch measures the proc switch: two procs ping-pong
// with Sleep(0), so every op is one same-instant post, one lane pop and
// one resume/park round trip per proc. Sleep's fast-forward never fires
// here — each proc's wakeup queues behind the other's at the same
// instant — so this stays the true-switch measure.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	body := func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(0)
		}
	}
	s.Spawn("ping", body)
	s.Spawn("pong", body)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
	s.Shutdown()
}

// BenchmarkSleepFastForward measures a sleep that fast-forwards: one
// proc alone in a Sleep(1) loop, whose every wakeup would be the next
// event dispatched, so it keeps running with no post, pop or switch.
func BenchmarkSleepFastForward(b *testing.B) {
	s := New()
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	s.Shutdown()
}

// BenchmarkPostPop measures the event core without procs: one post and
// one dispatch per op, through the same-instant lane and through heaps
// holding a standing backlog of later events.
func BenchmarkPostPop(b *testing.B) {
	fn := func() {}
	b.Run("lane", func(b *testing.B) {
		s := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.After(0, fn)
			s.step()
		}
	})
	for _, depth := range []int{1, 1024} {
		b.Run(fmt.Sprintf("heap/depth=%d", depth), func(b *testing.B) {
			s := New()
			for i := 0; i < depth; i++ {
				s.After(1<<62, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(1, fn)
				s.step()
			}
		})
	}
}
