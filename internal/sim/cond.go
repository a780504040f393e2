package sim

// Cond is a virtual-time condition variable. Waiters park until
// another proc (or an event) signals or broadcasts. As with
// sync.Cond, callers should re-check their predicate in a loop around
// Wait because wakeups are not tied to predicate changes.
//
// A waiter is either a parked proc (Wait) or a scheduler callback
// (WaitFn); both queue in one FIFO and resume the same way, as an
// event posted at the wakeup instant.
//
// A wakeup fires at ShardNow of the waiter's shard: under the coupled
// scheduler that is the global clock, the historical "wake at now";
// while armed it is the correct local time for a shard-local signal.
// Signaling a cond whose waiters live on another shard while armed is
// out of contract: Run panics if the waiter's shard had already
// drained, and the race detector reports a signaler racing a shard
// still draining.
type Cond struct {
	sim     *Sim
	waiters []waiter
}

// waiter is a blocked continuation queued on a Cond or Resource: a
// parked proc p, or a callback fn. k is the shard it resumes on.
type waiter struct {
	p  *Proc
	fn func()
	k  int
}

// wake posts w's resumption at time at on its shard.
func (s *Sim) wake(w waiter, at Time) {
	if w.p != nil {
		s.wakeAt(at, w.p)
		return
	}
	s.routePost(w.k, event{at: at, fn: w.fn})
}

// NewCond returns a condition variable bound to s.
func (s *Sim) NewCond() *Cond { return &Cond{sim: s} }

// Wait parks the calling proc until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, waiter{p: p, k: p.shard})
	p.park()
}

// WaitFn is Wait for scheduler context: instead of parking a proc, it
// queues fn, which a later Signal or Broadcast posts on shard k at the
// instant a parked proc would have resumed. fn runs once per WaitFn.
func (c *Cond) WaitFn(k int, fn func()) {
	c.waiters = append(c.waiters, waiter{fn: fn, k: k})
}

// Signal wakes the earliest waiter, if any. It may be called from any
// proc or from scheduler context.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = waiter{}
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.sim.wake(w, c.sim.ShardNow(w.k))
}

// Broadcast wakes every waiter in FIFO order.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.sim.wake(w, c.sim.ShardNow(w.k))
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Waiters reports the number of procs and callbacks currently queued
// on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
