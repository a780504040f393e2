package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// confinedScenario drives one randomized, shard-confined workload —
// procs pinned per shard, same-shard timers and spawns, shard-local
// conds — and returns the per-shard execution traces. workers > 0 arms
// the parallel engine with that many host workers; workers == 0 runs
// the same workload on the coupled scheduler. Traces are collected per
// shard (each appended only by that shard's events), so collection
// itself is race-free at any worker count and the returned value is
// exactly the object the determinism contract speaks about: each
// shard's ordered event stream.
func confinedScenario(seed int64, shards, workers int) [][]string {
	s := New()
	for s.Shards() < shards {
		s.AddShard()
	}
	s.SetParallel(workers)

	logs := make([][]string, shards)
	tr := func(k int, at Time, tag string) {
		logs[k] = append(logs[k], fmt.Sprintf("%d:%s", at, tag))
	}

	// One cond per shard: waiters and signalers stay on the shard, the
	// contract Cond documents for armed runs.
	conds := make([]*Cond, shards)
	waiting := make([]int, shards)
	for k := range conds {
		conds[k] = s.NewCond()
	}

	const procs = 12
	for i := 0; i < procs; i++ {
		k := i % shards
		rng := rand.New(rand.NewSource(seed*1777 + int64(i)))
		s.SpawnOn(k, fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 40; step++ {
				tag := fmt.Sprintf("p%d.%d", i, step)
				switch rng.Intn(6) {
				case 0:
					p.Yield()
					tr(k, p.Now(), tag+":yield")
				case 1:
					p.Sleep(Time(1 + rng.Intn(20)))
					tr(k, p.Now(), tag+":sleep")
				case 2: // same-shard timer
					at := p.Now()
					p.After(Time(rng.Intn(20)), func() {
						tr(k, p.sim.ShardNow(k), tag+":after")
					})
					tr(k, at, tag+":armed")
				case 3: // same-shard spawn burst
					for c := 0; c < 2; c++ {
						p.Spawn("child", func(q *Proc) {
							tr(k, q.Now(), fmt.Sprintf("%s:child%d", tag, c))
							q.Sleep(Time(1 + rng.Intn(3)))
							tr(k, q.Now(), fmt.Sprintf("%s:child%d-end", tag, c))
						})
					}
					tr(k, p.Now(), tag+":spawned")
				case 4: // shard-local cond traffic
					if waiting[k] == 0 && rng.Intn(2) == 0 {
						waiting[k]++
						conds[k].Wait(p)
						waiting[k]--
						tr(k, p.Now(), tag+":woke")
					} else {
						conds[k].Broadcast()
						tr(k, p.Now(), tag+":broadcast")
					}
				case 5:
					p.Sleep(0)
					tr(k, p.Now(), tag+":sleep0")
				}
			}
			tr(k, p.Now(), fmt.Sprintf("p%d:done", i))
		})
	}
	s.Run()
	s.Shutdown()
	return logs
}

// TestParallelEquivalenceProperty is the tentpole determinism gate:
// for 20 random shard-confined workloads, every shard's event stream is
// byte-identical at every worker count and to the coupled scheduler's
// run of the same workload. Workers only change which host goroutine
// drains a shard — never what runs, when, or in which order within a
// shard. Run with -race to additionally verify the drains share no
// state at W > 1.
func TestParallelEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, shards := range []int{2, 4} {
			ref := confinedScenario(seed, shards, 0)
			for _, workers := range []int{1, 2, 4, 8} {
				got := confinedScenario(seed, shards, workers)
				for k := range ref {
					if len(got[k]) != len(ref[k]) {
						t.Fatalf("seed %d shards %d workers %d: shard %d stream length %d, coupled %d",
							seed, shards, workers, k, len(got[k]), len(ref[k]))
					}
					for j := range ref[k] {
						if got[k][j] != ref[k][j] {
							t.Fatalf("seed %d shards %d workers %d: shard %d diverges from coupled at step %d: %q vs %q",
								seed, shards, workers, k, j, got[k][j], ref[k][j])
						}
					}
				}
			}
		}
	}
}

// TestArmedSequentialMatchesRerun pins that the armed engine is also
// reproducible against itself across independent simulations (fresh
// heaps, fresh proc IDs, fresh pools).
func TestArmedSequentialMatchesRerun(t *testing.T) {
	a := confinedScenario(42, 4, 1)
	b := confinedScenario(42, 4, 1)
	for k := range a {
		if strings.Join(a[k], "\n") != strings.Join(b[k], "\n") {
			t.Fatalf("shard %d: armed sequential run not reproducible", k)
		}
	}
}

// TestArmedCrossShardWakePanics checks the confinement backstop: a
// proc on shard 1 signals a cond whose waiter lives on shard 0, which
// at one worker has already drained. The wakeup is left queued when
// the drains join, and Run must panic instead of dropping or
// reordering it. The same workload is legal on the coupled scheduler.
func TestArmedCrossShardWakePanics(t *testing.T) {
	run := func(workers int) (r any) {
		s := New()
		s.AddShard()
		s.SetParallel(workers)
		c := s.NewCond()
		s.SpawnOn(0, "waiter", func(p *Proc) { c.Wait(p) })
		s.SpawnOn(1, "waker", func(p *Proc) {
			p.Sleep(10)
			c.Signal()
		})
		defer func() {
			r = recover()
			s.Shutdown()
		}()
		s.Run()
		return nil
	}
	if r := run(0); r != nil {
		t.Fatalf("coupled run panicked: %v", r)
	}
	r := run(1)
	if r == nil {
		t.Fatal("armed run accepted a wakeup posted into a drained shard")
	}
	if !strings.Contains(fmt.Sprint(r), "cross-shard event while armed") {
		t.Fatalf("unexpected panic: %v", r)
	}
}
