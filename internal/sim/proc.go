//go:build go1.23

// The proc lifecycle runs on Go runtime coroutines (iter.Pull), which
// need Go 1.23. The module's go line stays at 1.22 on purpose: raising
// it makes every module that replaces repro with this checkout (the
// benchmark driver, perfbench/go.mod) report "updates to go.mod
// needed" and refuse to build. The constraint makes an older toolchain
// fail on the missing lifecycle instead of on the iter import.

package sim

import "iter"

// allocProcOn hands out a proc resident on shard k for a new logical
// spawn, recycling a finished proc's object and coroutine when one is
// free. Must run on a context that owns shard k (the coupled
// scheduler, or k's worker while armed).
func (s *Sim) allocProcOn(k int, name string) *Proc {
	sh := &s.shards[k]
	var p *Proc
	if n := len(sh.free); n > 0 {
		p = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		p.name = name
		p.state = procNew
	} else {
		if sh.procs == nil {
			// A proc's coroutine costs about a dozen allocations; sizing
			// both pools for a machine boot's few procs up front keeps
			// their append growth from adding more.
			sh.procs = make([]*Proc, 0, 4)
			sh.free = make([]*Proc, 0, 4)
		}
		p = &Proc{sim: s, name: name, state: procNew, shard: k}
		// The coroutine body: the first resume starts it on the proc's
		// first assignment, and it serves recycled assignments until
		// Shutdown stops it.
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			for s.runAssignment(p) {
			}
		})
		sh.procs = append(sh.procs, p)
	}
	sh.nextProcID++
	p.id = uint64(k)<<48 | sh.nextProcID
	return p
}

// runAssignment executes p's current fn. On normal completion it
// recycles p into its shard's free pool and yields, reporting whether
// a later Spawn resumed the coroutine (true) or Shutdown stopped it
// (false). Recycling comes before the yield so the dispatch context
// may hand the proc straight to the next Spawn.
func (s *Sim) runAssignment(p *Proc) bool {
	if !s.runFn(p) {
		return false // unwound by Shutdown mid-run
	}
	p.state = procIdle
	p.gen++
	p.fn = nil
	p.fnArg = nil
	p.arg = nil
	p.trace = nil
	sh := &s.shards[p.shard]
	sh.free = append(sh.free, p)
	return p.yield(struct{}{})
}

// runFn runs p's current fn, reporting false when Shutdown unwound it.
// Any other panic, and runtime.Goexit, leave the coroutine, and
// iter.Pull re-raises them from the resume that was running p: on the
// dispatching goroutine, out of Run.
func (s *Sim) runFn(p *Proc) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	p.state = procRunning
	if p.fnArg != nil {
		p.fnArg(p, p.arg)
	} else {
		p.fn(p)
	}
	return true
}

// resume switches to p's coroutine and returns when p parks or
// finishes its assignment. It must only run on the context that owns
// p's shard, which is what keeps next from ever running concurrently.
func (s *Sim) resume(p *Proc) {
	if p.state == procDone || p.state == procIdle {
		return
	}
	p.state = procRunning
	p.next()
}

// park suspends the calling proc until it is resumed. The proc must
// already have arranged for a wakeup (an event, cond membership, ...).
// A false yield means Shutdown stopped the coroutine: the killed panic
// unwinds the proc's stack, running its defers.
func (p *Proc) park() {
	p.state = procParked
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
	p.state = procRunning
}
