// Package tenants is the multi-tenant QoS plane: open-loop per-tenant
// traffic generation, device-side weighted arbitration, and SLO
// accounting.
//
// The paper evaluates sharing with symmetric closed-loop fio jobs
// (Figs. 10/11) and delegates inter-process fairness to NVMe queue
// arbitration (§3.7). This package models the part that evaluation
// leaves open: many competing clients with different priorities,
// rates, and latency SLOs. Each tenant is its own OS process with its
// own files and interface (sync/libaio/io_uring/SPDK/BypassD); a
// seeded arrival process (Poisson or fixed-interval) generates
// requests on the virtual clock independently of completions, so —
// unlike internal/fio's closed loop — queueing delay is visible: a
// request's sojourn time is measured from its generated arrival
// instant to its completion, and a saturated tenant's backlog grows
// instead of throttling the offered load. The generator→server
// hand-off itself is workload.Pipe, shared with internal/frontend: a
// tenant is one pipe with a single FIFO class and QD servers, and this
// package supplies only the gap draw, the request draw and the I/O.
//
// Determinism: a scenario runs on one fresh simulation; every random
// draw (interarrival gaps, offsets, read/write mix) comes from a
// per-tenant rand.Source seeded from the scenario seed and the tenant
// index, drawn only by that tenant's generator proc. Replaying the
// same seed reproduces every arrival and completion instant exactly,
// at any host parallelism.
package tenants

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// Tenant describes one client of the shared device.
type Tenant struct {
	Name   string      `json:"name"`
	Engine core.Engine `json:"engine"`

	Arrival   workload.Process `json:"arrival,omitempty"` // default Poisson
	RateOps   float64          `json:"rate_ops"`          // offered load, requests/sec
	Ops       int              `json:"ops"`               // arrivals to generate
	BS        int              `json:"bs"`                // request size, bytes
	WriteFrac float64          `json:"write_frac,omitempty"`
	FileBytes int64            `json:"file_bytes"`
	QD        int              `json:"qd,omitempty"` // service contexts; default 1
	QoS       nvme.QoS         `json:"qos,omitempty"`
	SLO       sim.Time         `json:"slo_ns,omitempty"` // per-request target; 0 = none
}

// Scenario is a complete multi-tenant run.
type Scenario struct {
	Name string `json:"name"`
	// Arbiter selects the device arbitration policy: "rr" (default),
	// "wrr", or "prio" (see device.ArbiterByName); every device of the
	// topology runs the same policy.
	Arbiter  string `json:"arbiter,omitempty"`
	Capacity int64  `json:"capacity,omitempty"` // per-device bytes; 0 = auto
	// Devices is the number of SSDs in the machine (0 or 1 = the
	// single-device machine every earlier scenario ran on). Tenants
	// stripe across devices round-robin by tenant index; each device
	// gets its own file system, queues, and arbiter instance.
	Devices int      `json:"devices,omitempty"`
	Tenants []Tenant `json:"tenants"`
}

// NumDevices is the scenario's device count with the default made
// explicit.
func (sc Scenario) NumDevices() int {
	if sc.Devices < 1 {
		return 1
	}
	return sc.Devices
}

// placement maps a tenant index to its device node: round-robin
// striping, the deterministic tenant → device policy.
func (sc Scenario) placement(ti int) int { return ti % sc.NumDevices() }

// Result aggregates one tenant's run.
type Result struct {
	Tenant Tenant
	workload.Served

	// Lib is the tenant's UserLib degradation counters (BypassD
	// tenants only; zero value otherwise).
	Lib userlib.Stats
}

// Bytes is the tenant's completed payload.
func (r *Result) Bytes() int64 { return r.Completed * int64(r.Tenant.BS) }

// Bandwidth reports achieved bytes/sec over the active window.
func (r *Result) Bandwidth() float64 { return stats.BytesPerSec(r.Bytes(), r.End-r.Start) }

// request is one generated arrival.
type request struct {
	off   int64
	write bool
}

func (t *Tenant) validate() error {
	if t.Name == "" {
		return fmt.Errorf("tenants: tenant needs a name")
	}
	if t.BS <= 0 || t.BS%storage.SectorSize != 0 {
		return fmt.Errorf("tenants: %s: block size %d not sector aligned", t.Name, t.BS)
	}
	if t.FileBytes < int64(t.BS) {
		return fmt.Errorf("tenants: %s: file smaller than one request", t.Name)
	}
	if t.RateOps <= 0 {
		return fmt.Errorf("tenants: %s: rate must be positive", t.Name)
	}
	if t.Ops <= 0 {
		return fmt.Errorf("tenants: %s: ops must be positive", t.Name)
	}
	if !workload.ValidProcess(t.Arrival) {
		return fmt.Errorf("tenants: %s: unknown arrival process %q", t.Name, t.Arrival)
	}
	return nil
}

// validate checks the scenario Run accepts.
func (sc Scenario) validate() error {
	if len(sc.Tenants) == 0 {
		return fmt.Errorf("tenants: scenario %q has no tenants", sc.Name)
	}
	for i := range sc.Tenants {
		if err := sc.Tenants[i].validate(); err != nil {
			return err
		}
		if sc.NumDevices() > 1 && sc.Tenants[i].Engine == core.EngineSPDK {
			// SPDK claims a device exclusively through the node-0
			// driver; it has no multi-device story here.
			return fmt.Errorf("tenants: %s: SPDK tenants need a single-device scenario", sc.Tenants[i].Name)
		}
	}
	return nil
}

// Run executes the scenario as a phased run (core.RunPhased) on one
// freshly booted system and returns per-tenant results in tenant
// order, plus the simulator events it dispatched. Setup — mkdirs, file
// preallocation, syncs, process creation — runs coupled; the tenant
// pipelines are the traffic phase. Results are identical at any
// o.Workers.
func Run(seed int64, sc Scenario, o core.RunOptions) ([]*Result, uint64, error) {
	if err := sc.validate(); err != nil {
		return nil, 0, err
	}
	ndev := sc.NumDevices()
	capacity := sc.Capacity
	if capacity == 0 {
		// Auto-size every device to the largest per-device demand so
		// striping never changes a tenant's file layout headroom. At
		// one device this is exactly the historical sum-of-all formula.
		var need int64
		for d := 0; d < ndev; d++ {
			var devNeed int64 = 64 << 20
			for ti, t := range sc.Tenants {
				if sc.placement(ti) == d {
					devNeed += t.FileBytes
				}
			}
			if devNeed > need {
				need = devNeed
			}
		}
		capacity = need*3/2 + (64 << 20)
		capacity = (capacity + storage.SectorSize - 1) &^ (storage.SectorSize - 1)
	}

	results := make([]*Result, len(sc.Tenants))
	procs := make([]*kernel.Process, len(sc.Tenants))
	for i := range sc.Tenants {
		results[i] = &Result{Tenant: sc.Tenants[i]}
	}
	events, err := core.RunPhased(core.Phased{
		Name:     "tenants",
		Capacity: capacity,
		Devices:  ndev,
		Arbiter:  sc.Arbiter,
		Setup: func(p *sim.Proc, r *core.PhasedRun) error {
			sys := r.Sys
			// One superuser process per device: a process's file-system
			// view is its node's mount, so each device gets its own
			// /tenants tree. At one device this is the historical setup
			// sequence, event for event.
			roots := make([]*kernel.Process, ndev)
			for d := 0; d < ndev; d++ {
				roots[d] = sys.NewProcessOn(ext4.Root, d)
				if err := roots[d].Mkdir(p, "/tenants", 0o777); err != nil {
					return err
				}
			}
			for ti := range sc.Tenants {
				t := &sc.Tenants[ti]
				if err := fio.SetupFile(p, sys, roots[sc.placement(ti)], tenantPath(ti), t.Engine, t.FileBytes); err != nil {
					return err
				}
			}
			for d := 0; d < ndev; d++ {
				if err := roots[d].Sync(p); err != nil {
					return err
				}
			}
			for ti := range sc.Tenants {
				// Each tenant is its own process: own address space, own
				// PASID, own QoS class on every queue it registers — bound
				// to the device the striping policy placed it on. Tenant
				// pipelines are device-affine, as armed drains need.
				pr := sys.NewProcessOn(ext4.Root, sc.placement(ti))
				pr.QoS = sc.Tenants[ti].QoS
				procs[ti] = pr
				startTenant(sys, pr, &sc.Tenants[ti], ti, seed, results[ti], r.Fail)
			}
			return nil
		},
		Finish: func(r *core.PhasedRun) {
			for ti := range sc.Tenants {
				if sc.Tenants[ti].Engine == core.EngineBypassD {
					results[ti].Lib = r.Sys.Lib(procs[ti]).Stats
				}
			}
		},
	}, o)
	if err != nil {
		return nil, 0, err
	}
	return results, events, nil
}

func tenantPath(ti int) string { return fmt.Sprintf("/tenants/t%d", ti) }

// startTenant builds one tenant's pipe — a single FIFO class — on its
// device's event shard and spawns its generator and QD servers there,
// keeping each device's whole stream (arrivals, submissions,
// completions) in one lane of the deterministic merge.
func startTenant(sys *core.System, pr *kernel.Process, t *Tenant, ti int, seed int64, res *Result, fail func(error)) {
	reg := sys.M.Metrics
	pipe := workload.NewPipe[request](workload.PipeConfig{
		Sim:     sys.Sim,
		Shard:   sys.M.Nodes[pr.Node()].Shard,
		Faults:  sys.M.Faults,
		SLO:     t.SLO,
		Done:    reg.Counter("tenant_ops_total", "tenant", t.Name),
		Miss:    reg.Counter("tenant_slo_miss_total", "tenant", t.Name),
		Sojourn: reg.Histogram("tenant_sojourn_ns", "tenant", t.Name),
		Fail:    fail,
	}, &res.Served)

	// One stream per tenant, drawn only by its generator: arrival
	// instants and request contents never depend on service order.
	rng := rand.New(rand.NewSource(seed*7919 + int64(ti)*104729 + 17))
	blocks := t.FileBytes / int64(t.BS)
	pipe.Generate("tenant-gen-"+t.Name, t.Ops,
		func(sim.Time) sim.Time { return workload.Interarrival(rng, t.Arrival, t.RateOps) },
		func(int, sim.Time) (request, int, bool) {
			return request{off: rng.Int63n(blocks) * int64(t.BS), write: rng.Float64() < t.WriteFrac}, 0, true
		})

	path := tenantPath(ti)
	for wi := 0; wi < max(t.QD, 1); wi++ {
		pipe.Serve(fmt.Sprintf("tenant-%s-w%d", t.Name, wi), func(w *sim.Proc) (workload.ServeFunc[request], error) {
			io, err := sys.NewFileIO(w, pr, t.Engine)
			if err != nil {
				return nil, err
			}
			fd, err := io.Open(w, path, t.WriteFrac > 0)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, t.BS)
			return func(w *sim.Proc, _ sim.Time, req request) (bool, error) {
				var err error
				if req.write {
					_, err = io.Pwrite(w, fd, buf, req.off)
				} else {
					_, err = io.Pread(w, fd, buf, req.off)
				}
				if err != nil {
					return false, fmt.Errorf("tenants: %s: %w", t.Name, err)
				}
				return true, nil
			}, nil
		}, nil)
	}
}
