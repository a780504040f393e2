package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// laneScenario drives one randomized workload and returns its full
// execution trace: every logged step tagged with the virtual time it
// ran at. The workload deliberately stresses the staging lane's edge
// cases — bursts of same-timestamp posts, events that post more
// same-instant events from inside their handlers, zero-length sleeps,
// and cond-based resume ordering.
func laneScenario(seed int64, noLane bool) []string {
	s := New()
	s.noLane = noLane
	var log []string
	trace := func(tag string, p *Proc) {
		log = append(log, fmt.Sprintf("%d:%s", p.Now(), tag))
	}
	cond := s.NewCond()
	waiting := 0

	const procs = 8
	for i := 0; i < procs; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed + int64(i)))
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 30; step++ {
				tag := fmt.Sprintf("p%d.%d", i, step)
				switch rng.Intn(6) {
				case 0: // same-instant resume through the scheduler
					p.Sleep(0)
					trace(tag+":sleep0", p)
				case 1: // clock advance
					p.Sleep(Time(1 + rng.Intn(3)))
					trace(tag+":sleep", p)
				case 2: // cross-post: a handler that posts another handler
					step := step
					s.After(0, func() {
						log = append(log, fmt.Sprintf("%d:p%d.%d:post", s.Now(), i, step))
						s.After(0, func() {
							log = append(log, fmt.Sprintf("%d:p%d.%d:post2", s.Now(), i, step))
						})
					})
					trace(tag+":after", p)
				case 3: // same-instant spawn burst
					for k := 0; k < 2; k++ {
						k := k
						s.Spawn("child", func(c *Proc) {
							trace(fmt.Sprintf("p%d.%d:child%d", i, step, k), c)
							c.Sleep(0)
							trace(fmt.Sprintf("p%d.%d:child%d-end", i, step, k), c)
						})
					}
					trace(tag+":spawned", p)
				case 4: // park on the shared cond
					if waiting < 3 {
						waiting++
						cond.Wait(p)
						waiting--
						trace(tag+":woke", p)
					} else {
						cond.Broadcast()
						trace(tag+":broadcast", p)
					}
				case 5: // wake one waiter
					cond.Signal()
					trace(tag+":signal", p)
				}
			}
			trace(fmt.Sprintf("p%d:done", i), p)
		})
	}
	s.Run()
	// The fast path skips posts (same-instant lane, fast-forwarded
	// sleeps) but must count every event and land on the same clocks.
	clocks := make([]Time, s.Shards())
	for k := range clocks {
		clocks[k] = s.shards[k].now
	}
	log = append(log, fmt.Sprintf("end: processed=%d clocks=%v", s.Processed(), clocks))
	// Unwind any procs still parked on the cond.
	s.Shutdown()
	return log
}

// TestLaneDispatchEquivalenceProperty pins the staging lane's defining
// property: batched same-instant dispatch, with fast-forwarded sleeps,
// is observationally identical to the heap-only reference scheduler —
// down to the event count and the final clocks. Any divergence in event order
// cascades through the per-proc RNGs, so a single out-of-order wake
// diverges the whole trace.
func TestLaneDispatchEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		lane := laneScenario(seed, false)
		ref := laneScenario(seed, true)
		if len(lane) != len(ref) {
			t.Fatalf("seed %d: lane trace has %d steps, reference %d", seed, len(lane), len(ref))
		}
		for i := range lane {
			if lane[i] != ref[i] {
				t.Fatalf("seed %d: traces diverge at step %d: lane %q, reference %q", seed, i, lane[i], ref[i])
			}
		}
	}
}

// TestHeapPopReleasesAndShrinks checks the two pop-side hygiene
// properties: the vacated tail slot drops its closure/proc references
// (so finished events don't pin memory until overwritten), and the
// backing array shrinks once occupancy falls to a quarter.
func TestHeapPopReleasesAndShrinks(t *testing.T) {
	h := newEventHeap()
	fn := func() {}
	const n = 1024
	for i := 0; i < n; i++ {
		h.push(event{at: Time(i), seq: uint64(i), fn: fn})
	}
	grown := cap(h)
	if grown < n {
		t.Fatalf("cap %d after %d pushes", grown, n)
	}
	for i := 0; i < n-1; i++ {
		h.pop()
		full := h[:cap(h)]
		if tail := full[len(h)]; tail.fn != nil || tail.p != nil {
			t.Fatalf("pop %d: vacated slot still holds fn/proc references", i)
		}
	}
	if cap(h) >= grown {
		t.Fatalf("cap %d did not shrink from %d after draining to %d events", cap(h), grown, len(h))
	}
	if e := h.pop(); e.at != Time(n-1) {
		t.Fatalf("last event at %v, want %v", e.at, Time(n-1))
	}
}

// TestProcReuseKeepsIdentity checks the proc pool's no-aliasing
// contract: recycled *Proc values must present fresh logical
// identities (distinct IDs) and stale resume events posted against a
// dead generation must never wake the proc's next tenant.
func TestProcReuseKeepsIdentity(t *testing.T) {
	s := New()
	seen := make(map[uint64]string)
	var order []string
	for round := 0; round < 5; round++ {
		round := round
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn("r", func(p *Proc) {
				name := fmt.Sprintf("r%d.%d", round, i)
				if prev, dup := seen[p.ID()]; dup {
					t.Errorf("proc ID %d reused: %s then %s", p.ID(), prev, name)
				}
				seen[p.ID()] = name
				p.Sleep(Time(i))
				order = append(order, name)
			})
		}
		s.Run() // drain: procs recycle into the free list between rounds
	}
	if len(seen) != 20 {
		t.Fatalf("%d distinct proc IDs, want 20", len(seen))
	}
	if len(order) != 20 {
		t.Fatalf("%d completions, want 20", len(order))
	}
	s.Shutdown()
}
