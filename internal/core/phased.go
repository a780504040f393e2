package core

import (
	"sync"

	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// RunOptions scopes one phased run: the environment its machine boots
// into and the host workers its traffic phase may use.
type RunOptions struct {
	Env kernel.Env
	// Workers is the number of host goroutines that execute a
	// multi-device machine's event shards during the traffic phase
	// (the conservative epoch engine; DESIGN.md §15). Results are
	// identical at any value; <= 1 runs the epoch schedule on one
	// goroutine. Single-device runs ignore it.
	Workers int
}

// Phased is a run in two phases on one freshly booted machine: a
// coupled setup proc that builds state and spawns the traffic procs,
// then the traffic phase under the epoch engine. The traffic tiers
// (tenants, frontend) are Phased runs; each supplies only its setup
// and its result collection.
type Phased struct {
	Name     string // the setup proc is Name+"-setup"
	Capacity int64  // bytes per device
	Devices  int
	Arbiter  string // device.ArbiterByName policy on every device
	// Setup runs coupled on the setup proc. It must leave every
	// traffic proc on its device's event shard: the epoch engine arms
	// when Setup returns nil, and its barrier merge enforces that
	// device affinity. An error ends the run before traffic arms.
	Setup func(p *sim.Proc, r *PhasedRun) error
	// Finish, if set, reads results off the drained machine before it
	// closes. It runs only when the run succeeded.
	Finish func(r *PhasedRun)
}

// PhasedRun is a phased run in progress: the booted system and the
// run's first error.
type PhasedRun struct {
	Sys *System

	mu  sync.Mutex // traffic procs on different shards may fail at once
	err error
}

// Fail records err unless the run already failed. Traffic procs call
// it from any shard.
func (r *PhasedRun) Fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// RunPhased boots ph's machine into o.Env, runs Setup coupled, arms the
// epoch engine for the traffic phase, runs the simulation dry, and
// reports the simulator events dispatched. On a multi-device machine
// the engine arms even at one worker, so a run's results are one
// schedule at every worker count; a single-device machine never arms
// and keeps its coupled schedule.
func RunPhased(ph Phased, o RunOptions) (uint64, error) {
	sys, err := Boot(o.Env, ph.Capacity, ph.Devices)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	for _, n := range sys.M.Nodes {
		n.Dev.SetArbiter(device.ArbiterByName(ph.Arbiter))
	}
	r := &PhasedRun{Sys: sys}
	sys.Sim.Spawn(ph.Name+"-setup", func(p *sim.Proc) {
		if err := ph.Setup(p, r); err != nil {
			r.Fail(err)
			return
		}
		// Arming takes effect once this proc yields: every event up to
		// here ran coupled.
		sys.M.ArmParallel(o.Workers)
	})
	sys.Sim.Run()
	sys.M.DisarmParallel()
	if r.err != nil {
		return 0, r.err
	}
	if ph.Finish != nil {
		ph.Finish(r)
	}
	return sys.Sim.Processed(), nil
}
