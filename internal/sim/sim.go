// Package sim provides a deterministic discrete-event simulation kernel.
//
// All latencies in the BypassD reproduction are virtual: the simulated
// machine (SSD, IOMMU, kernel, applications) advances a virtual
// nanosecond clock instead of wall-clock time, so results are exact and
// reproducible regardless of the Go runtime's scheduling behaviour.
//
// The kernel runs simulated processes (Proc) cooperatively: each proc
// is a Go runtime coroutine (iter.Pull, proc.go), and control passes
// between the dispatching context and a proc by a direct coroutine
// switch — resume calls the coroutine's next, park its yield — with no
// trip through the Go scheduler. Events that fire at the same virtual
// instant run in the order they were posted.
//
// The dispatch hot path is built for throughput (DESIGN.md §12):
// same-instant events go through a FIFO staging lane instead of the
// heap (no sift traffic for wakeup storms), finished procs park their
// coroutines in a free pool for reuse by later Spawns (no coroutine or
// stack churn in steady state), and Proc.SpawnArg avoids
// the per-spawn closure allocation on the device's per-command path.
// Every post and spawn funnels through one enqueue path (routePost),
// which also holds the one "posted in the past" check.
//
// Multi-device topologies partition the event stream into shards
// (DESIGN.md §14): each shard owns its own heap + staging lane, clock,
// and seq stream, and the coupled scheduler pops the global minimum by
// the canonical (at, shard, seq) key — virtual-clock lockstep — with a
// plain scan of the shard heads. A single-shard simulation sees only
// the shard-0 stream, so its dispatch order is the historical
// single-queue order exactly. On top of the coupled scheduler sits a
// parallel engine (DESIGN.md §15, parallel.go): arm it with
// SetParallel and Run drains each shard to idle on a host worker.
// Armed traffic is shard-confined, so every shard's stream — and every
// result — is identical at any worker count and to the coupled run.
package sim

import (
	"fmt"
	"sync"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats t with an adaptive unit, e.g. "4.02µs".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.2fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

type event struct {
	at  Time
	seq uint64
	fn  func()
	// p, when non-nil, marks a proc-resume event: the scheduler calls
	// resume(p) directly instead of going through a closure. Sleeps and
	// wakeups dominate the event stream, and allocating a closure for
	// each showed up at the top of -benchmem profiles. pgen snapshots
	// p's generation at post time; a mismatch at dispatch marks a stale
	// wakeup for a proc that finished and was recycled.
	p    *Proc
	pgen uint64
}

// eventHeap is a binary min-heap ordered by (at, seq). The sift
// routines are hand-rolled rather than going through container/heap:
// the interface-based API boxes every pushed and popped event, which
// dominated simulator allocations.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// heapShrinkMin is the smallest backing array the pop-time shrink
// policy bothers reallocating; below it the memory is noise.
const heapShrinkMin = 256

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // nil out fn and p so dead closures/procs aren't pinned
	q = q[:n]
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	// Shrink policy: long-running scenarios spike the heap (a burst of
	// tenants, a broadcast storm) and then idle; without a shrink the
	// oversized backing array — and the stale events beyond len() that
	// append will not overwrite until the next spike — lives for the
	// rest of the simulation.
	if cap(q) >= heapShrinkMin && n <= cap(q)/4 {
		nq := make(eventHeap, n, cap(q)/2)
		copy(nq, q)
		q = nq
	}
	*h = q
	return top
}

// heapPool recycles event-heap backing arrays across Sim instances:
// every experiment cell boots (and shuts down) its own machine, and
// regrowing the heap from scratch each time showed up in -benchmem.
var heapPool = sync.Pool{}

func newEventHeap() eventHeap {
	if v := heapPool.Get(); v != nil {
		return (*(v.(*eventHeap)))[:0]
	}
	return make(eventHeap, 0, 64)
}

func releaseEventHeap(h eventHeap) {
	h = h[:cap(h)]
	for i := range h {
		h[i] = event{} // drop closure references before pooling
	}
	h = h[:0]
	heapPool.Put(&h)
}

// shard is one partition of the event stream and its private runtime
// state: a heap for future posts, the same-instant staging lane, a
// local clock and seq stream, and the proc pool whose resumes route
// here. A single-device simulation has exactly one shard; a topology
// gives each device its own via AddShard. In an armed run (DESIGN.md
// §15) each shard is drained by exactly one worker, so none of these
// fields need locks.
type shard struct {
	events  eventHeap
	lane    []event
	laneOff int

	// now is the shard's local clock: the timestamp of the last event
	// dispatched on it. Under the coupled scheduler it trails the
	// global clock; while armed it runs ahead of it, which stays at
	// the arming instant until the drains join.
	now Time
	// seq is the shard's post counter. The canonical event key is
	// (at, shard, seq): per-shard streams with the shard index as the
	// tiebreak give multi-shard runs a total order that no longer
	// depends on a global counter — which is what lets shards execute
	// on separate host cores — while shard 0's stream alone reproduces
	// the historical single-queue order exactly.
	seq       uint64
	processed uint64

	// Proc machinery: the pools of procs whose resume events route
	// through this shard. Per-shard pools keep spawn/park/finish free
	// of cross-shard traffic in parallel runs; procs are shard-resident
	// for their lifetime, so only the context draining the shard ever
	// switches into their coroutines.
	procs      []*Proc
	free       []*Proc
	nextProcID uint64
}

func newShard() shard {
	return shard{events: newEventHeap()}
}

// laneFirst reports whether the shard's next event is the lane front:
// the lane is non-empty and its front precedes the heap top by
// (at, seq). Lane entries hold at == the shard clock at post time, so
// only a heap entry at the same instant with an older seq may precede
// them.
func (sh *shard) laneFirst() bool {
	if sh.laneOff >= len(sh.lane) {
		return false
	}
	if len(sh.events) == 0 {
		return true
	}
	le, he := &sh.lane[sh.laneOff], &sh.events[0]
	return le.at < he.at || (le.at == he.at && le.seq < he.seq)
}

// peek reports the time of the shard's earliest queued event; ok is
// false when the shard is idle.
func (sh *shard) peek() (at Time, ok bool) {
	if sh.laneFirst() {
		return sh.lane[sh.laneOff].at, true
	}
	if len(sh.events) > 0 {
		return sh.events[0].at, true
	}
	return 0, false
}

// next pops the shard's earliest event by (at, seq); the shard must
// not be idle.
func (sh *shard) next() event {
	if !sh.laneFirst() {
		return sh.events.pop()
	}
	le := sh.lane[sh.laneOff]
	sh.lane[sh.laneOff] = event{} // release the closure/proc ref
	sh.laneOff++
	if sh.laneOff == len(sh.lane) {
		sh.lane = sh.lane[:0]
		sh.laneOff = 0
	}
	return le
}

// idle reports whether the shard has no queued events.
func (sh *shard) idle() bool {
	return sh.laneOff >= len(sh.lane) && len(sh.events) == 0
}

// procState tracks where a Proc is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
	// procIdle marks a finished proc whose coroutine is suspended in
	// the spawn pool, waiting for a later Spawn to reuse it.
	procIdle
)

// Proc is a simulated thread of execution. A Proc may only call
// blocking methods (Sleep, Cond.Wait, Resource.Acquire, ...) from its
// own coroutine while it is the running proc.
//
// Proc objects (and their coroutines) are recycled: when fn returns,
// the proc parks in its shard's free pool and a later Spawn may hand
// it a new identity. ID() distinguishes logical spawns across reuse —
// two spawns never share an ID even when they share a *Proc.
type Proc struct {
	sim   *Sim
	name  string
	state procState
	trace any

	// next, yield and stop drive the proc's coroutine (proc.go): the
	// dispatching context switches in with next, the proc switches
	// back out with yield, and Shutdown unwinds it with stop.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// shard is the event lane the proc's resumes route to. Procs are
	// shard-resident: the shard is fixed at first allocation (from the
	// spawning context, or pinned with SpawnOn) and recycling reuses
	// the proc only for spawns on the same shard.
	shard int

	// id is unique per logical spawn; gen increments on every recycle
	// so resume events posted for a previous life are dropped.
	id  uint64
	gen uint64

	// Exactly one of fn / fnArg is set per assignment. fnArg+arg is the
	// closure-free spawn variant (SpawnArg).
	fn    func(p *Proc)
	fnArg func(p *Proc, arg any)
	arg   any
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the proc's current virtual time: its shard's clock or
// the global clock, whichever is ahead. Under the coupled scheduler
// this equals the global clock whenever the proc is running; while
// armed it is the correct local time while the global clock trails at
// the arming instant.
func (p *Proc) Now() Time { return p.sim.ShardNow(p.shard) }

// Shard reports the event shard the proc's resumes route through.
func (p *Proc) Shard() int { return p.shard }

// ID returns the proc's logical spawn identity: unique per Spawn for
// the lifetime of the Sim, even when the underlying Proc object is
// recycled. Layers that intern per-thread state (the trace plane's
// tids) key on it instead of the pointer. IDs are tagged with the
// shard in the high bits, so shard 0's IDs — the only shard of a
// single-device simulation — are the historical 1, 2, 3, ...
func (p *Proc) ID() uint64 { return p.id }

// SetTraceCtx attaches an opaque per-request trace context to the
// proc (the observability plane's span, threaded through layers that
// don't pass request structs). Procs run cooperatively, so the slot
// needs no synchronization. Set nil to clear.
func (p *Proc) SetTraceCtx(v any) { p.trace = v }

// TraceCtx returns the context set by SetTraceCtx, or nil.
func (p *Proc) TraceCtx() any { return p.trace }

// killed is the panic payload used to unwind procs during Shutdown.
type killed struct{}

// Sim is a discrete-event simulation instance. The zero value is not
// usable; construct with New.
type Sim struct {
	now Time

	// shards partitions the event stream; shards[0] always exists and
	// is where everything routes in a single-device simulation. Each
	// shard keeps the same-instant staging FIFO in front of its heap:
	// events posted at exactly the shard's current time append in O(1)
	// and pop in O(1), skipping both heap sifts. Because every lane
	// entry carries at == the shard clock and a seq greater than
	// anything posted on the shard before it, draining the lane front
	// against the heap top by (at, seq) reproduces exact posted-order
	// FIFO semantics — the property test in batch_test.go pins this
	// against a heap-only reference scheduler. A lane empties before
	// the shard clock advances (pops take the (at, seq) minimum, so
	// the clock cannot pass a queued at == now entry), so entries
	// never go stale.
	shards []shard
	// cur is the shard of the currently dispatching context under the
	// coupled scheduler: contextless fn posts route to it, and spawned
	// procs inherit it as their affinity. The parallel engine never
	// reads it — armed workloads use the Proc-context posting APIs.
	cur int
	// noLane forces every post through the heap — the one-at-a-time
	// reference dispatcher the lane equivalence test compares against.
	noLane bool
	// noShard routes every post to shard 0 regardless of affinity —
	// the single-queue reference dispatcher the shard equivalence test
	// compares against.
	noShard bool

	// workers > 0 with more than one shard arms the parallel engine
	// (parallel.go): Run drains the shards on that many host workers.
	workers int

	running bool
}

// New returns an empty simulation with the clock at zero and a single
// event shard.
func New() *Sim {
	return &Sim{shards: []shard{newShard()}}
}

// Now returns the current virtual time of the coupled scheduler. While
// armed it stays at the arming instant — procs should use Proc.Now
// (their shard clock) instead; after Run returns it is the maximum
// across shards.
func (s *Sim) Now() Time { return s.now }

// ShardNow reports virtual time as seen from the given shard: the
// shard clock or the global clock, whichever is ahead. Under the
// coupled scheduler this equals Now(); while armed it is the shard's
// local time. It is also the earliest time a post to shard k may
// carry.
func (s *Sim) ShardNow(k int) Time {
	if sn := s.shards[k].now; sn > s.now {
		return sn
	}
	return s.now
}

// ShardClock returns a closure over ShardNow(k) — the time source
// layers with a stored clock function (the filesystem's mtimes) use
// so that each device's timestamps come from its own shard.
func (s *Sim) ShardClock(k int) func() Time {
	return func() Time { return s.ShardNow(k) }
}

// Processed reports the number of events dispatched so far — the
// simulator's unit of work, used by the throughput benchmarks to
// report simulated events per wall second.
func (s *Sim) Processed() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].processed
	}
	return n
}

// AddShard grows the topology by one event shard and returns its
// index. Shard 0 exists from construction; a multi-device machine
// adds one shard per additional device so each device's command
// stream lives in its own lane, merged deterministically by the
// canonical (at, shard, seq) key.
func (s *Sim) AddShard() int {
	s.shards = append(s.shards, newShard())
	return len(s.shards) - 1
}

// Shards reports the number of event shards.
func (s *Sim) Shards() int { return len(s.shards) }

// SetParallel arms the parallel engine with the given number of host
// workers, or disarms it with workers <= 0. While armed with more than
// one shard, Run drains every shard to idle on its worker instead of
// popping the global minimum one event at a time. The caller asserts
// that armed traffic is shard-confined: no armed event posts into
// another shard (Run panics on one it can see). Results are identical
// at any worker count by construction.
func (s *Sim) SetParallel(workers int) {
	s.workers = max(workers, 0)
}

// routePost is the single enqueue path: e goes to shard tgt with a seq
// from tgt's stream. Every posting and spawning entry funnels here, so
// this is also the one causality check: nothing may land before the
// target shard's clock.
func (s *Sim) routePost(tgt int, e event) {
	if s.noShard {
		tgt = 0
	}
	if floor := s.ShardNow(tgt); e.at < floor {
		panic(fmt.Sprintf("sim: event posted in the past (%v < %v)", e.at, floor))
	}
	sh := &s.shards[tgt]
	sh.seq++
	e.seq = sh.seq
	if e.at == sh.now && !s.noLane {
		sh.lane = append(sh.lane, e)
	} else {
		sh.events.push(e)
	}
}

// wakeAt schedules p to be resumed at time at, on p's shard, without
// allocating a closure. A cross-shard waker while armed is out of
// contract (see Cond).
func (s *Sim) wakeAt(at Time, p *Proc) {
	s.routePost(p.shard, event{at: at, p: p, pgen: p.gen})
}

// pending reports whether any event is queued in any shard.
func (s *Sim) pending() bool {
	for i := range s.shards {
		if !s.shards[i].idle() {
			return true
		}
	}
	return false
}

// minShard returns the shard holding the globally earliest event by the
// canonical (at, shard, seq) key, and that event's time; k is -1 when
// every shard is idle. seq only orders events within a shard, which
// peek already did, so scanning the shards in index order with a strict
// < realises the key: at an equal time the lower shard wins. The scan
// is O(shards) per pop, and it runs only for coupled multi-shard
// dispatch — armed traffic drains shard by shard, and single-shard
// simulations never reach it.
func (s *Sim) minShard() (k int, at Time) {
	k = -1
	for i := range s.shards {
		if a, ok := s.shards[i].peek(); ok && (k < 0 || a < at) {
			k, at = i, a
		}
	}
	return k, at
}

// step pops the globally earliest event, records its shard as the
// current dispatch context, advances the global clock to it and
// dispatches it; some event must be pending. With one shard this is
// the historical single-queue pop.
func (s *Sim) step() {
	s.cur = 0
	if len(s.shards) > 1 {
		s.cur, _ = s.minShard()
	}
	sh := &s.shards[s.cur]
	e := sh.next()
	s.now = e.at
	s.dispatch(sh, e)
}

// dispatch advances sh's clock to e and runs it.
func (s *Sim) dispatch(sh *shard, e event) {
	sh.now = e.at
	sh.processed++
	if e.p != nil {
		if e.pgen == e.p.gen {
			s.resume(e.p)
		}
		return
	}
	e.fn()
}

// After schedules fn to run d nanoseconds from now, on the current
// coupled dispatch context's shard. fn runs in scheduler context and
// must not block; spawn a proc for blocking work. Not for use from
// armed workloads — those post through a Proc context.
func (s *Sim) After(d Time, fn func()) { s.routePost(s.cur, event{at: s.now + d, fn: fn}) }

// AtOn schedules fn at absolute time at on an explicit shard. It is
// the shard-safe variant for layers that hold a shard index rather
// than a Proc context (a device's wakeup timer): while armed the
// caller must be executing on that same shard.
func (s *Sim) AtOn(k int, at Time, fn func()) { s.routePost(k, event{at: at, fn: fn}) }

// spawn is the one spawn body: a new proc resident on shard k that
// begins executing at time at, running fn(p) or, closure-free,
// fnArg(p, arg).
func (s *Sim) spawn(k int, at Time, name string, fn func(*Proc), fnArg func(*Proc, any), arg any) *Proc {
	p := s.allocProcOn(k, name)
	p.fn, p.fnArg, p.arg = fn, fnArg, arg
	s.wakeAt(at, p)
	return p
}

// Spawn creates a proc that begins executing fn at the current virtual
// time. It may be called before Run or from inside coupled dispatch.
// The proc inherits the spawning context's shard. From a running proc
// in a parallel workload, use Proc.Spawn instead.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(s.curShard(), s.now, name, fn, nil, nil)
}

// SpawnOn is Spawn with an explicit shard affinity: the proc's resume
// events route through that shard's lane. Topology boot pins each
// device's procs (and their tenants' workers) to the device's shard.
func (s *Sim) SpawnOn(shardIdx int, name string, fn func(p *Proc)) *Proc {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		panic(fmt.Sprintf("sim: SpawnOn shard %d of %d", shardIdx, len(s.shards)))
	}
	return s.spawn(shardIdx, s.now, name, fn, nil, nil)
}

// SpawnAt creates a proc that begins executing fn at virtual time at.
func (s *Sim) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	return s.spawn(s.curShard(), at, name, fn, nil, nil)
}

// curShard is the spawn affinity of the coupled dispatch context.
func (s *Sim) curShard() int {
	if s.noShard {
		return 0
	}
	return s.cur
}

// Spawn creates a proc on the calling proc's shard, starting at the
// calling proc's current time. This is the spawn to use from procs in
// parallel workloads: it touches only shard-local state.
func (p *Proc) Spawn(name string, fn func(q *Proc)) *Proc {
	return p.sim.spawn(p.shard, p.Now(), name, fn, nil, nil)
}

// SpawnArg is Spawn for hot paths: fn is a shared, pre-built function
// value and arg carries the per-spawn state, so spawning allocates no
// closure. Pointer-typed args avoid the interface boxing allocation.
func (p *Proc) SpawnArg(name string, fn func(q *Proc, arg any), arg any) *Proc {
	return p.sim.spawn(p.shard, p.Now(), name, nil, fn, arg)
}

// After schedules fn d nanoseconds after the calling proc's current
// time, on the proc's shard. fn runs in scheduler context.
func (p *Proc) After(d Time, fn func()) {
	p.sim.routePost(p.shard, event{at: p.Now() + d, fn: fn})
}

// Sleep advances the proc's virtual time by d. d must be >= 0.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	p.sim.wakeAt(p.Now()+d, p)
	p.park()
}

// Yield lets all other events scheduled at the current instant on the
// proc's shard run before the proc continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Run processes events until the event queue is empty. Procs parked on
// conditions with no pending wakeups remain parked (idle servers); call
// Shutdown to unwind them.
//
// With more than one shard and the engine armed, Run drains the shards
// in parallel (parallel.go); otherwise it is the coupled loop popping
// the global (at, shard, seq) minimum one event at a time. Arming is
// re-checked between dispatches, so a harness may arm the engine
// mid-run (SetParallel from inside an event handler, e.g. after a
// setup phase that needs coupled cross-shard freedom) and the
// remaining events drain in parallel.
func (s *Sim) Run() {
	if s.running {
		panic("sim: Run is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.pending() {
		if s.ParallelArmed() {
			s.runDrains() // leaves every shard idle, or panics
			return
		}
		s.step()
	}
}

// ParallelArmed reports whether the parallel engine is armed: the next
// Run (or the remainder of the current one) drains shards in parallel.
// Control planes consult this to confine cross-shard side effects to
// coupled phases.
func (s *Sim) ParallelArmed() bool {
	return len(s.shards) > 1 && s.workers > 0
}

// RunUntil processes events with timestamps <= t, then sets the clock
// to t. It returns the number of events processed. RunUntil always
// dispatches coupled (never armed): it is a harness-stepping API.
func (s *Sim) RunUntil(t Time) int {
	if s.running {
		panic("sim: RunUntil is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	n := 0
	for k, at := s.minShard(); k >= 0 && at <= t; k, at = s.minShard() {
		s.step()
		n++
	}
	if s.now < t {
		s.now = t
	}
	return n
}

// Shutdown unwinds every parked, idle, or not-yet-started proc so
// their coroutines exit. Pending events are discarded. The simulation
// must not be used afterwards. A parked proc unwinds through its
// defers; a defer that parks again unwinds the same way, and a proc a
// defer spawns with Proc.Spawn is stopped before it starts.
func (s *Sim) Shutdown() {
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.events != nil {
			releaseEventHeap(sh.events)
			sh.events = nil
		}
		for i := range sh.lane {
			sh.lane[i] = event{}
		}
		sh.lane = sh.lane[:0]
		sh.laneOff = 0
		sh.free = nil
	}
	for si := range s.shards {
		for i := 0; i < len(s.shards[si].procs); i++ {
			p := s.shards[si].procs[i]
			if p.state == procParked || p.state == procNew || p.state == procIdle {
				p.stop()
				p.state = procDone
			}
		}
	}
}

// Live reports the number of procs that have not finished (idle pooled
// procs are not live: their assignment completed).
func (s *Sim) Live() int {
	n := 0
	for si := range s.shards {
		for _, p := range s.shards[si].procs {
			if p.state != procDone && p.state != procIdle {
				n++
			}
		}
	}
	return n
}
