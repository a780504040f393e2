package sim

// CPUSet models a pool of cores with processor-sharing semantics.
//
// The BypassD evaluation machine has 24 hardware threads (paper §6.1).
// Compute segments dilate when more threads demand CPU than there are
// cores, and busy-polling threads additionally pay a descheduling
// penalty when oversubscribed — this is what makes io_uring's SQPOLL
// mode collapse past 12 application threads in Fig. 9 (each ring
// needs an extra polling core).
//
// The pool is provisioned per shard: each event shard (one per device
// node in a topology) gets its own bank of cores and its own demand
// counter, so compute dilation is a function of shard-local state
// only — which keeps it deterministic when shards execute on separate
// host cores. A single-shard machine has exactly one lane and behaves
// as the historical global pool. Create the set after the topology's
// shards exist (NewCPUSet sizes one lane per shard).
type CPUSet struct {
	sim   *Sim
	cores int
	// demand[k] is shard k's instantaneous count of threads computing
	// or busy-polling.
	demand []int

	// DeschedulePenalty approximates the scheduler-quantum stall a
	// busy-polling thread suffers per wait when demand exceeds cores.
	// The penalty applied is penalty * (demand-cores)/demand.
	DeschedulePenalty Time
}

// NewCPUSet returns a CPU pool with the given core count per shard.
func (s *Sim) NewCPUSet(cores int) *CPUSet {
	if cores <= 0 {
		panic("sim: core count must be positive")
	}
	return &CPUSet{
		sim:               s,
		cores:             cores,
		demand:            make([]int, len(s.shards)),
		DeschedulePenalty: 50 * Microsecond,
	}
}

// lane maps p to its shard's demand slot. A proc on a shard added
// after the set was created charges lane 0 (the historical global
// pool) — topologies avoid this by creating the set last.
func (c *CPUSet) lane(p *Proc) *int {
	k := p.shard
	if k >= len(c.demand) {
		k = 0
	}
	return &c.demand[k]
}

// dilation returns the processor-sharing slowdown factor for the
// given demand level.
func (c *CPUSet) dilation(demand int) float64 {
	if demand <= c.cores {
		return 1
	}
	return float64(demand) / float64(c.cores)
}

// Compute burns d nanoseconds of CPU on the calling proc, dilated by
// the oversubscription factor sampled at entry.
func (c *CPUSet) Compute(p *Proc, d Time) {
	if d <= 0 {
		return
	}
	lane := c.lane(p)
	*lane++
	f := c.dilation(*lane)
	p.Sleep(Time(float64(d) * f))
	*lane--
}

// BusyWait parks p on cond while charging it as CPU demand (the thread
// spins on a completion queue rather than blocking). When the machine
// is oversubscribed the waker's signal is additionally delayed by a
// share of the descheduling penalty, modelling the spinning thread
// losing its core to the scheduler.
func (c *CPUSet) BusyWait(p *Proc, cond *Cond) {
	lane := c.lane(p)
	*lane++
	cond.Wait(p)
	if *lane > c.cores {
		over := *lane - c.cores
		p.Sleep(c.DeschedulePenalty * Time(over) / Time(*lane))
	}
	*lane--
}

// Occupy marks the calling thread as permanently CPU-hungry until
// Vacate — a pinned polling thread that never yields its core
// (io_uring SQPOLL+IOPOLL). While occupied, use Penalty instead of
// BusyWait to avoid double-counting demand.
func (c *CPUSet) Occupy(p *Proc) { *c.lane(p)++ }

// Vacate releases an Occupy.
func (c *CPUSet) Vacate(p *Proc) { *c.lane(p)-- }

// Penalty charges p the descheduling share an always-spinning thread
// suffers when the machine is oversubscribed. Call it after each unit
// of work (or wakeup) of an Occupy'd thread.
func (c *CPUSet) Penalty(p *Proc) {
	lane := c.lane(p)
	if *lane > c.cores {
		over := *lane - c.cores
		p.Sleep(c.DeschedulePenalty * Time(over) / Time(*lane))
	}
}
