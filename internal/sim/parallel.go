package sim

// Parallel shard drains (DESIGN.md §15).
//
// When armed (SetParallel with more than one shard), Run hands shard i
// to host worker i%w, and each worker drains its shards one after
// another until they are idle. There are no epochs, horizons or
// barriers: armed traffic is shard-confined by contract — every post an
// armed event makes targets its own shard — so a shard's event stream is
// a function of its own queue alone. That stream is the same at any
// worker count, under any host interleaving, and it is the stream the
// coupled scheduler produces by popping the global (at, shard, seq)
// minimum. The equivalence property test pins all three under the race
// detector.
//
// The contract is checked, not trusted. An event one shard pushes into
// another lands either in a shard that already drained — it is still
// queued when the workers join, and Run panics — or in a shard still
// draining on another worker, a data race the -race worker-invariance
// suite reports.

import "sync"

// drainShard executes shard k's events until the shard is idle,
// advancing its local clock. It runs on the worker that owns k and
// touches only shard-local state (plus whatever the events themselves
// touch — the cross-package contract audited in DESIGN.md §15).
func (s *Sim) drainShard(k int) {
	sh := &s.shards[k]
	for !sh.idle() {
		s.dispatch(sh, sh.next())
	}
}

// runDrains is Run's armed body. On exit the global clock is synced to
// the maximum shard clock so post-run harness reads (metrics snapshots,
// utilization integrals) see final time.
func (s *Sim) runDrains() {
	k := len(s.shards)
	w := min(s.workers, k)
	drainOwned := func(j int) {
		for i := j; i < k; i += w {
			s.drainShard(i)
		}
	}
	var wg sync.WaitGroup
	for j := 1; j < w; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drainOwned(j)
		}()
	}
	drainOwned(0)
	wg.Wait()

	for i := range s.shards {
		if sn := s.shards[i].now; sn > s.now {
			s.now = sn
		}
	}
	if s.pending() {
		panic("sim: cross-shard event while armed — an armed event posted into a shard that had already drained")
	}
}
