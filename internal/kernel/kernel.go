// Package kernel models the operating system of the BypassD
// reproduction: processes with PASIDs and page tables, the VFS/ext4
// syscall layer with the per-layer costs measured in the paper's
// Table 1, the block layer and NVMe driver, the standard I/O paths
// (synchronous, libaio, io_uring with SQPOLL), and the BypassD kernel
// module (user queue pairs, DMA buffers, fmap(), revocation).
//
// A machine fronts one or more SSDs behind a single shared IOMMU
// (paper §3.4: the file-table entries carry a DevID so a VBA minted
// for one device cannot reach another). Each device is a DevNode —
// the SSD, its mounted file system, and the kernel queue that submits
// on it — and each node's device events run on their own event shard,
// merged deterministically by the simulator (DESIGN.md §14).
package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/iommu"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config carries the software-stack cost model. Defaults come from
// Table 1 and the Table 5 fits documented in DESIGN.md.
type Config struct {
	Cores int

	SyscallEnter sim.Time // user -> kernel mode switch
	SyscallExit  sim.Time // kernel -> user mode switch
	VFSCost      sim.Time // VFS + ext4 data path (4 KiB)
	VFSPerPage   sim.Time // extra per additional 4 KiB page
	BlockLayer   sim.Time // bio assembly, scheduling
	DriverSubmit sim.Time // NVMe driver submission

	OpenCost sim.Time // in-kernel cost of open() (Table 5 row 1)

	FmapBase     sim.Time // warm fmap fixed cost
	FmapPerPMD   sim.Time // per fragment pointer update (warm)
	FmapColdBase sim.Time // extent-tree population on cold fmap
	FmapPerPTE   sim.Time // per file-table entry built (cold)

	UringVFSCost sim.Time // kernel work per io_uring op (no switches)
	AioReap      sim.Time // per-event io_getevents cost
	XRPBpfExec   sim.Time // one BPF hook execution in the driver

	// Env is the run the machine boots into: how it is faulted and
	// observed. The zero value turns every plane off.
	Env Env
}

// Env is one run's scope: the fault plan, trace collector and metrics
// registry every machine the run boots picks up at boot, and nothing
// outside the run sees. Each field is nil-safe and independent; the
// zero Env is a clean, unobserved run. Runs with different Envs may
// execute concurrently in one process.
type Env struct {
	Faults  *faults.Plan      // each machine builds its injector here
	Trace   *trace.Collector  // each machine registers a tracer here
	Metrics *metrics.Registry // each layer resolves its series here
}

// DefaultConfig returns the paper calibration.
func DefaultConfig() Config {
	return Config{
		Cores:        24,
		SyscallEnter: 160 * sim.Nanosecond,
		SyscallExit:  100 * sim.Nanosecond,
		VFSCost:      2810 * sim.Nanosecond,
		VFSPerPage:   15 * sim.Nanosecond,
		BlockLayer:   540 * sim.Nanosecond,
		DriverSubmit: 220 * sim.Nanosecond,
		OpenCost:     1020 * sim.Nanosecond,
		FmapBase:     390 * sim.Nanosecond,
		FmapPerPMD:   31 * sim.Nanosecond,
		FmapColdBase: 700 * sim.Nanosecond,
		FmapPerPTE:   5 * sim.Nanosecond,
		UringVFSCost: 2240 * sim.Nanosecond,
		AioReap:      100 * sim.Nanosecond,
		XRPBpfExec:   500 * sim.Nanosecond,
	}
}

// inoKey identifies an inode machine-wide. Inode numbers are
// per-device — two mounts can both hand out ino 12 — so every piece
// of kernel state keyed by inode (attachments, revocations, write
// locks) keys on (device, ino), never on the bare number.
type inoKey struct {
	dev uint8
	ino uint32
}

// ikey builds the machine-wide key for an inode.
func ikey(in *ext4.Inode) inoKey { return inoKey{dev: in.Dev, ino: in.Ino} }

// DevNode is one SSD of the machine's topology: the device, its
// mounted file system, and the kernel queue that submits on it. Each
// node's device events run on their own simulator event shard, so an
// N-device machine advances N independent event streams that the
// scheduler merges deterministically by the global (at, seq) key.
type DevNode struct {
	Index int // position in Machine.Nodes
	Shard int // sim event shard the node's device events run on
	// MMU is the node's translation agent. One IOMMU per node (one
	// per root complex, as on a real multi-socket machine) keeps the
	// whole ATS hot path — IOTLB, paging-structure cache, counters —
	// confined to the node's event shard, which is what lets shards
	// execute on separate host cores without locks. Every process
	// PASID is registered on every node's IOMMU (the kernel driver
	// programs each context table), so the cross-device DevID denial
	// (paper §3.4, Fig. 3) behaves exactly as with one shared agent.
	MMU *iommu.IOMMU
	Dev *device.SSD
	FS  *ext4.FS

	kq *kernelQueue
}

// Machine is a booted system: a device fleet + shared IOMMU, with a
// mounted file system per device.
type Machine struct {
	Sim *sim.Sim
	CPU *sim.CPUSet
	// Dev, MMU and FS alias node 0 — the historical single-device
	// surface. Every existing single-device caller keeps working
	// unchanged; multi-device callers go through Nodes.
	Dev *device.SSD
	MMU *iommu.IOMMU
	FS  *ext4.FS
	Cfg Config

	// Nodes is the device topology, in boot order. Node 0 runs on
	// event shard 0, so a one-node machine is byte-identical to the
	// pre-topology single-lane machine.
	Nodes []*DevNode

	// nodeByDev routes an inode (via Inode.Dev) back to its node.
	// Construction guarantees the mapping is injective: a duplicate
	// DevID is a boot error, because the FTE DevID check (paper §3.4,
	// Fig. 3) is a silent no-op between devices sharing an ID.
	nodeByDev map[uint8]*DevNode

	// Faults is the machine's fault plane, built from Cfg.Env's plan at
	// boot and shared with the devices, IOMMU and file systems. Nil
	// (the untriggered default) is inert.
	Faults *faults.Injector

	// Metrics is Cfg.Env's registry, which every layer of the machine
	// resolves its series on. Nil is inert.
	Metrics *metrics.Registry

	// BlockRetries counts transient device errors the kernel block
	// layer absorbed by resubmitting. Updated atomically: kernel block
	// I/O can retry on any node's shard.
	BlockRetries int64

	// Trace is the machine's span tracer, registered with Cfg.Env's
	// collector at boot (or attached later via EnableTrace). Nil — the
	// untriggered default — is inert.
	Trace *trace.Tracer

	kq *kernelQueue

	mBlockRetries *metrics.Counter

	nextPID   int
	nextPASID uint32

	// mu guards the machine-global control-plane maps below. The hot
	// data path never takes it; it exists for the short control-plane
	// window at the start of an armed traffic phase (per-tenant
	// library init: fmap, DMA-buffer registration) where processes on
	// different shards touch machine-wide bookkeeping concurrently.
	mu sync.Mutex

	// attachments tracks every fmap()ed (process, region) per inode
	// so the kernel can revoke direct access (paper §3.6).
	attachments map[inoKey][]*Attachment
	revoked     map[inoKey]bool

	// writeLocks models ext4's per-inode i_rwsem, held exclusively
	// during direct-I/O write submission. Concurrent writers to one
	// file serialize here — the bottleneck the paper observes for
	// KVell on YCSB A, which BypassD sidesteps by writing from
	// userspace (§6.5).
	writeLocks map[inoKey]*sim.Resource

	// dmaBufs tracks every pinned DMA buffer handed out on this
	// machine, recycled at teardown via ReleaseResources.
	dmaBufs [][]byte
}

// ReleaseResources returns the machine's recyclable structures — queue
// rings and pinned DMA buffers — to their shared pools. Only a
// teardown path that owns the machine (core.System.Close) may call it;
// the machine must not be used afterwards.
func (m *Machine) ReleaseResources() {
	for _, n := range m.Nodes {
		n.Dev.ReleaseResources()
		n.FS.ReleaseResources()
	}
	for i, b := range m.dmaBufs {
		device.PutDMABuf(b)
		m.dmaBufs[i] = nil
	}
	m.dmaBufs = nil
}

// Attachment is one process's fmap()ed view of a file.
type Attachment struct {
	Proc     *Process
	Base     uint64
	Span     uint64 // bytes currently attached
	Reserved uint64 // virtual region reserved for in-place growth
	Writable bool
	Revoked  bool
	// Region marks a §5.1 extent-table mapping (FmapRegion) rather
	// than page-table FTEs.
	Region bool

	key inoKey // owning inode, machine-wide
}

// NewMachine boots a single-device machine. If st is nil a fresh
// store is created and formatted; otherwise the existing image is
// mounted.
func NewMachine(s *sim.Sim, cfg Config, dcfg device.Config, st *storage.Store) (*Machine, error) {
	return NewMachineN(s, cfg, []device.Config{dcfg}, []*storage.Store{st})
}

// NewMachineN boots a machine over a device fleet sharing one IOMMU.
// The fleet's DevIDs are made unique before any device exists
// (device.AssignDevIDs): presets hardcode their IDs, so a fleet of N
// copies of one preset would otherwise collide and turn the Fig. 3
// cross-device VBA denial into a no-op. Device i > 0 gets a fresh
// event shard; device 0 stays on shard 0, which keeps a one-device
// boot byte-identical to the pre-topology machine. sts supplies
// per-device images (a nil slice, or nil entries, format fresh
// stores). dcfgs is modified in place (DevID/Shard assignment).
func NewMachineN(s *sim.Sim, cfg Config, dcfgs []device.Config, sts []*storage.Store) (*Machine, error) {
	if len(sts) != 0 && len(sts) != len(dcfgs) {
		return nil, fmt.Errorf("kernel: %d stores for %d devices", len(sts), len(dcfgs))
	}
	if err := device.AssignDevIDs(dcfgs); err != nil {
		return nil, err
	}
	m := &Machine{
		Sim:         s,
		Cfg:         cfg,
		nodeByDev:   make(map[uint8]*DevNode, len(dcfgs)),
		attachments: make(map[inoKey][]*Attachment),
		revoked:     make(map[inoKey]bool),
		writeLocks:  make(map[inoKey]*sim.Resource),
		nextPASID:   100,
	}
	m.Faults = cfg.Env.Faults.NewInjector()
	m.Metrics = cfg.Env.Metrics

	names := make(map[string]bool, len(dcfgs))
	for i := range dcfgs {
		dcfg := dcfgs[i]
		if names[dcfg.Name] {
			// Same-preset fleet: disambiguate resource, trace, and
			// error-message names. The first occurrence — and thus any
			// single-device boot — keeps its preset name.
			dcfg.Name = fmt.Sprintf("%s.%d", dcfg.Name, i)
		}
		names[dcfg.Name] = true
		dcfg.Shard = 0
		if i > 0 {
			dcfg.Shard = s.AddShard()
		}
		dcfgs[i] = dcfg

		var st *storage.Store
		if len(sts) > 0 {
			st = sts[i]
		}
		fresh := st == nil
		if fresh {
			st = storage.NewBytes(dcfg.CapacityBytes)
		}
		// One IOMMU per node (see DevNode.MMU): the node's ATS traffic
		// stays on its own event shard.
		mmu := iommu.New(iommu.DefaultConfig())
		mmu.SetEnv(m.Faults, m.Metrics)
		dev := device.NewWithStore(s, dcfg, st)
		dev.AttachIOMMU(mmu)
		dev.SetEnv(m.Faults, m.Metrics)

		if fresh {
			if err := ext4.Mkfs(&ext4.Direct{St: st}, ext4.DefaultOptions(dcfg.CapacityBytes, dcfg.DevID)); err != nil {
				return nil, err
			}
		}
		// Boot-time mount goes through the untimed path; runtime I/O
		// then flows through the timed kernel BlockIO. The file
		// system's clock is the node's shard clock: while armed a
		// shard legitimately runs ahead of the global clock, and
		// mtimes must follow the I/O that dirtied them.
		fs, err := ext4.Mount(nil, &ext4.Direct{St: st}, dcfg.DevID, s.ShardClock(dcfg.Shard))
		if err != nil {
			return nil, err
		}
		q, err := dev.CreateQueue(0, 4096)
		if err != nil {
			return nil, err
		}
		n := &DevNode{Index: i, Shard: dcfg.Shard, MMU: mmu, Dev: dev, FS: fs}
		n.kq = &kernelQueue{m: m, n: n, q: q, waiters: make(map[uint16]*waiter)}
		fs.SetBlockIO(&kernelBIO{m: m, n: n})
		fs.SetEnv(m.Faults, m.Metrics)

		if prev, dup := m.nodeByDev[dcfg.DevID]; dup {
			return nil, fmt.Errorf("kernel: duplicate DevID %d (%s and %s)",
				dcfg.DevID, prev.Dev.Config().Name, dcfg.Name)
		}
		m.nodeByDev[dcfg.DevID] = n
		m.Nodes = append(m.Nodes, n)
	}
	n0 := m.Nodes[0]
	m.Dev, m.FS, m.MMU, m.kq = n0.Dev, n0.FS, n0.MMU, n0.kq
	// The CPU pool sizes one lane per event shard, so it must be
	// created after the device loop added every shard.
	m.CPU = s.NewCPUSet(cfg.Cores)
	m.mBlockRetries = m.Metrics.Counter("kernel_block_retries_total")
	if tr := cfg.Env.Trace.NewTracer(dcfgs[0].Name); tr != nil {
		m.EnableTrace(tr)
	}
	return m, nil
}

// EnableTrace attaches a span tracer to the machine and its file
// systems, feeding the tracer's io_* series into the machine's
// registry. Harnesses that want attribution without a run-wide trace
// (fio.Spec.Trace, the T6 experiment) call this with a standalone
// trace.NewTracer.
func (m *Machine) EnableTrace(tr *trace.Tracer) {
	m.Trace = tr
	tr.SetMetrics(m.Metrics)
	for _, n := range m.Nodes {
		n.FS.SetTracer(tr)
	}
}

// node routes an inode to the topology node that owns it, via the
// device identity stamped on the inode at materialization.
func (m *Machine) node(in *ext4.Inode) *DevNode {
	if n, ok := m.nodeByDev[in.Dev]; ok {
		return n
	}
	// Inodes built outside a mount (tests) carry Dev 0; node 0 is the
	// only sensible home.
	return m.Nodes[0]
}

// writeLock returns the inode's i_rwsem equivalent. The lock lives on
// the inode's node shard: its holders and waiters are that node's
// writers, so accounting stays shard-local in a parallel run.
func (m *Machine) writeLock(in *ext4.Inode) *sim.Resource {
	k := ikey(in)
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.writeLocks[k]
	if !ok {
		l = m.Sim.NewResourceOn(m.node(in).Shard, fmt.Sprintf("i_rwsem-%d", k.ino), 1)
		m.writeLocks[k] = l
	}
	return l
}

// ArmParallel arms the simulator's parallel engine for a shard-confined
// traffic phase and returns the worker count actually granted: every
// node's shard then drains to idle on a host worker. On a single-node
// machine it is a no-op (returns 1). The request is degraded to one
// worker — the shards still drain one by one, so results stay
// invariant across worker counts — when a machine-wide observer that
// the parallel path cannot serve race-free is attached: an armed fault
// profile (shared rule state and PRNG) or a span tracer.
func (m *Machine) ArmParallel(workers int) int {
	if len(m.Nodes) < 2 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	if m.Faults.Active() || m.Trace != nil {
		workers = 1
	}
	m.Sim.SetParallel(workers)
	return workers
}

// DisarmParallel returns the simulator to coupled dispatch.
func (m *Machine) DisarmParallel() { m.Sim.SetParallel(0) }

// invalidateRange drops pasid's cached translations for [va, va+bytes)
// on every IOMMU that may hold them. Coupled phases fan out to all
// nodes (a PASID is registered machine-wide, and a queue on any node
// may have translated for it — the Fig. 3 denial path walks, and a
// real kernel must shoot down every agent). While the parallel engine
// is armed, traffic is device-affine by contract, so only the owning
// node's agent can hold entries and the shoot-down stays shard-local.
func (m *Machine) invalidateRange(owner *DevNode, pasid uint32, va uint64, bytes int64) {
	if m.Sim.ParallelArmed() {
		owner.MMU.InvalidateRange(pasid, va, bytes)
		return
	}
	for _, n := range m.Nodes {
		n.MMU.InvalidateRange(pasid, va, bytes)
	}
}

// waiter tracks one in-flight kernel command.
type waiter struct {
	done   bool
	status nvme.Status
}

// kernelQueue multiplexes kernel-initiated commands over one device
// queue pair. Threads waiting for completions sleep (interrupt model)
// rather than burning CPU.
type kernelQueue struct {
	m       *Machine
	n       *DevNode
	q       *nvme.QueuePair
	waiters map[uint16]*waiter
	nextCID uint16

	// wFree recycles waiter boxes: the kernel issues one per command,
	// and a steady stream of block I/O would otherwise allocate one per
	// op forever. Single-goroutine, like everything under the scheduler.
	wFree []*waiter
}

// getWaiter hands out a reset waiter box for one in-flight command.
func (k *kernelQueue) getWaiter() *waiter {
	if n := len(k.wFree); n > 0 {
		w := k.wFree[n-1]
		k.wFree[n-1] = nil
		k.wFree = k.wFree[:n-1]
		*w = waiter{}
		return w
	}
	return &waiter{}
}

// putWaiter retires a waiter box once its command completed.
func (k *kernelQueue) putWaiter(w *waiter) { k.wFree = append(k.wFree, w) }

func (k *kernelQueue) allocCID() uint16 {
	for {
		k.nextCID++
		if _, busy := k.waiters[k.nextCID]; !busy {
			return k.nextCID
		}
	}
}

// drain moves posted completions into their waiters.
func (k *kernelQueue) drain() {
	for {
		c, ok := k.q.PopCQE()
		if !ok {
			return
		}
		if w := k.waiters[c.CID]; w != nil {
			w.done = true
			w.status = c.Status
		}
	}
}

// submitAndWait issues one command and blocks (interrupt-style) until
// it completes.
func (k *kernelQueue) submitAndWait(p *sim.Proc, e nvme.SQE) nvme.Status {
	cid := k.allocCID()
	e.CID = cid
	if e.Span == nil {
		// Pick up the span threaded through the proc by the layer that
		// owns the request (BIO, XRP, io_uring's poller); AIO sets
		// SQE.Span explicitly because it submits from a helper proc.
		e.Span = trace.SpanFrom(p)
	}
	w := k.getWaiter()
	k.waiters[cid] = w
	if err := k.q.Submit(e); err != nil {
		delete(k.waiters, cid)
		k.putWaiter(w)
		return nvme.StatusInternalError
	}
	for !w.done {
		k.drain()
		if w.done {
			break
		}
		k.q.CQReady.Wait(p)
	}
	delete(k.waiters, cid)
	e.Span.Complete(p.Now())
	st := w.status
	k.putWaiter(w)
	return st
}

// submitRetry is submitAndWait plus the block layer's bounded
// resubmission of transient failures (media error, timeout); every
// raw kernel submission path (block I/O, AIO, XRP) shares it so
// injected device faults degrade to retries, not EIO.
func (k *kernelQueue) submitRetry(p *sim.Proc, e nvme.SQE) nvme.Status {
	var st nvme.Status
	for attempt := 0; ; attempt++ {
		st = k.submitAndWait(p, e)
		if st.OK() || !st.Transient() || attempt >= blockRetries {
			return st
		}
		atomic.AddInt64(&k.m.BlockRetries, 1)
		k.m.mBlockRetries.Inc()
	}
}

// kernelBIO is the timed ext4.BlockIO for one node: it charges the
// block layer and driver costs, then performs the transfer through
// the node's device.
type kernelBIO struct {
	m *Machine
	n *DevNode
}

var _ ext4.BlockIO = (*kernelBIO)(nil)

func (b *kernelBIO) charge(p *sim.Proc) {
	b.m.CPU.Compute(p, b.m.Cfg.BlockLayer+b.m.Cfg.DriverSubmit)
}

// blockRetries bounds the block layer's resubmissions of a command
// that failed with a transient status (media error, timeout) before
// the error surfaces as EIO, matching the kernel's nvme retry path.
const blockRetries = 3

func (b *kernelBIO) io(p *sim.Proc, op nvme.Opcode, blk, n int64, buf []byte) error {
	if p == nil {
		panic("kernel: timed block I/O without a proc")
	}
	b.charge(p)
	st := b.n.kq.submitRetry(p, nvme.SQE{
		Opcode:  op,
		SLBA:    blk * ext4.SectorsPerBlock,
		Sectors: n * ext4.SectorsPerBlock,
		Buf:     buf,
	})
	if !st.OK() {
		return fmt.Errorf("kernel: block %s at %d on %s queue %d: %v",
			op, blk, b.n.Dev.Config().Name, b.n.kq.q.ID, st)
	}
	return nil
}

func (b *kernelBIO) ReadBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	return b.io(p, nvme.OpRead, blk, n, buf[:n*ext4.BlockSize])
}

func (b *kernelBIO) WriteBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	return b.io(p, nvme.OpWrite, blk, n, buf[:n*ext4.BlockSize])
}

func (b *kernelBIO) ZeroBlocks(p *sim.Proc, blk, n int64) error {
	return b.io(p, nvme.OpWriteZeroes, blk, n, nil)
}

func (b *kernelBIO) Flush(p *sim.Proc) error {
	if p == nil {
		panic("kernel: timed flush without a proc")
	}
	b.m.CPU.Compute(p, b.m.Cfg.DriverSubmit)
	if st := b.n.kq.submitAndWait(p, nvme.SQE{Opcode: nvme.OpFlush}); !st.OK() {
		return fmt.Errorf("kernel: flush: %v", st)
	}
	return nil
}
