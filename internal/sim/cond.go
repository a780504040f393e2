package sim

// Cond is a virtual-time condition variable. Waiters park until
// another proc (or an event) signals or broadcasts. As with
// sync.Cond, callers should re-check their predicate in a loop around
// Wait because wakeups are not tied to predicate changes.
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
	waiters []*Proc
}

// NewCond returns a condition variable bound to s.
func (s *Sim) NewCond() *Cond { return &Cond{sim: s} }

// Wait parks the calling proc until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes the earliest waiter, if any. It may be called from any
// proc or from scheduler context.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.sim.wakeAt(c.sim.ShardNow(p.shard), p)
}

// Broadcast wakes every waiter in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.sim.wakeAt(c.sim.ShardNow(p.shard), p)
	}
	c.waiters = c.waiters[:0]
}

// Waiters reports the number of procs currently parked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
