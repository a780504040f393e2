package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/userlib"
)

// rw-mix: the data path on one Optane-class SSD. One process runs
// rwThreads BypassD threads, each with its own open (its own fmap
// region) and queue pair, closed loop at queue depth 1: 70% random
// 4 KiB reads and 30% random 4 KiB writes over a 256 MiB file. A
// second process reads a 64 MiB file through the kernel beside them —
// the paper's shared-device case. Four regions of 128 leaf tables
// each far exceed the IOMMU's 32-entry paging-structure cache, so most
// translations walk.
const (
	rwBlock       = 4096
	rwFileBytes   = 256 << 20
	rwSyncBytes   = 64 << 20
	rwDeviceBytes = 1 << 30
	rwThreads     = 4
	rwThreadOps   = 2048 // BypassD ops per thread per batch
	rwSyncOps     = 1280 // kernel reads per batch, about as long in virtual time
	rwBatchOps    = rwThreads*rwThreadOps + rwSyncOps
	rwVirtBatches = 32 // batches whose virtual-clock results are reported
	rwSetups      = 5
)

var rwPaths = [2]string{"/rw.dat", "/sync.dat"}

type vbaOp struct {
	vba   uint64
	write bool
}

// rwMix is one booted rw-mix machine with its procs parked at the gate.
type rwMix struct {
	r    *run
	seed int64
	sys  *core.System
	pr   *kernel.Process // the BypassD process
	g    *gate
	tr   *trace.Tracer

	ver  []uint32 // shadow: write version of each block of rwPaths[0]
	busy []bool   // an op on the block is in flight

	threads []*userlib.Thread
	openLat []sim.Time

	batch             int // batches run so far
	readLat, writeLat []sim.Time
	vbas              []vbaOp
	dig               uint64   // digest of every virtual latency so far
	digests           []uint64 // dig after each batch
	virtOps           int64    // BypassD ops in the reported batches

	// State at the start and end of the reported batches.
	v0, v1     sim.Time
	ev0, ev1   uint64
	dev0, dev1 device.Stats
	pwc0, pwc1 [2]int64
	ns0, ns1   [2]sim.Time // summed UserNS, DeviceNS of the threads
	heap0      uint64      // live heap after the reported batches (traced runs)
}

func newRWMix(r *run, tr *trace.Tracer) (*rwMix, error) {
	sys, err := core.New(rwDeviceBytes)
	if err != nil {
		return nil, err
	}
	w := &rwMix{
		r: r, seed: r.seed, sys: sys, tr: tr,
		ver:  make([]uint32, rwFileBytes/rwBlock),
		busy: make([]bool, rwFileBytes/rwBlock),
	}
	if tr != nil {
		sys.M.EnableTrace(tr)
	}
	var serr error
	sys.Sim.Spawn("prefill", func(p *sim.Proc) { serr = w.prefill(p) })
	sys.Sim.Run()
	if serr != nil {
		sys.Close()
		return nil, fmt.Errorf("prefill: %w", serr)
	}
	w.g = newGate(sys.Sim)
	w.pr = sys.NewProcess(ext4.Root)
	for t := 0; t < rwThreads; t++ {
		sys.Sim.Spawn(fmt.Sprintf("bypassd-%d", t), func(p *sim.Proc) { w.bypassThread(p, t) })
	}
	sys.Sim.Spawn("sync-reader", w.syncReader)
	sys.Sim.Run()
	if len(w.threads) != rwThreads {
		sys.Close()
		return nil, fmt.Errorf("%d of %d BypassD threads started", len(w.threads), rwThreads)
	}
	return w, nil
}

func (w *rwMix) close() { w.sys.Close() }

// prefill writes both files through the kernel with version 0 of
// every block's image.
func (w *rwMix) prefill(p *sim.Proc) error {
	root := w.sys.NewProcess(ext4.Root)
	buf := make([]byte, 1<<20)
	for file, size := range []int64{rwFileBytes, rwSyncBytes} {
		fd, err := root.Create(p, rwPaths[file], 0o644)
		if err != nil {
			return err
		}
		for off := int64(0); off < size; off += int64(len(buf)) {
			for i := 0; i < len(buf); i += rwBlock {
				fillBlock(buf[i:i+rwBlock], w.seed, file, int((off+int64(i))/rwBlock), 0)
			}
			if n, err := root.Pwrite(p, fd, buf, off); err != nil || n != len(buf) {
				return fmt.Errorf("pwrite %s at %d: %d bytes, %v", rwPaths[file], off, n, err)
			}
		}
		if err := root.Fsync(p, fd); err != nil {
			return err
		}
		if err := root.Close(p, fd); err != nil {
			return err
		}
	}
	return nil
}

func (w *rwMix) bypassThread(p *sim.Proc, t int) {
	io, err := w.sys.NewFileIO(p, w.pr, core.EngineBypassD)
	if err != nil {
		w.r.errorf("bypassd thread %d: %v", t, err)
		return
	}
	start := p.Now()
	fd, err := io.Open(p, rwPaths[0], true)
	if err != nil {
		w.r.errorf("bypassd thread %d: open: %v", t, err)
		return
	}
	w.openLat = append(w.openLat, p.Now()-start)
	st, err := w.sys.Lib(w.pr).State(fd)
	if err != nil || !st.Direct() {
		w.r.errorf("bypassd thread %d: no direct mapping (%v)", t, err)
		return
	}
	th, _ := core.BypassThread(io)
	w.threads = append(w.threads, th)
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(t)))
	buf := make([]byte, rwBlock)
	nblk := len(w.ver)
	for b := 0; w.g.wait(p, b); b++ {
		virt := b < rwVirtBatches
		for i := 0; i < rwThreadOps; i++ {
			blk := rng.Intn(nblk)
			for w.busy[blk] {
				blk = rng.Intn(nblk)
			}
			write := rng.Intn(10) < 3
			off := int64(blk) * rwBlock
			w.busy[blk] = true
			start := p.Now()
			if write {
				ver := w.ver[blk] + 1
				fillBlock(buf, w.seed, 0, blk, ver)
				if n, err := io.Pwrite(p, fd, buf, off); err != nil || n != rwBlock {
					w.r.errorf("pwrite block %d: %d bytes, %v", blk, n, err)
				} else {
					w.ver[blk] = ver
				}
			} else {
				if n, err := io.Pread(p, fd, buf, off); err != nil || n != rwBlock {
					w.r.errorf("pread block %d: %d bytes, %v", blk, n, err)
				} else if !blockOK(buf, w.seed, 0, blk, w.ver[blk]) {
					w.r.errorf("pread block %d: wrong bytes (want version %d)", blk, w.ver[blk])
				}
			}
			lat := p.Now() - start
			w.busy[blk] = false
			w.r.attempted++
			w.dig = digest(w.dig, int64(lat))
			if virt {
				w.virtOps++
				w.vbas = append(w.vbas, vbaOp{st.Base + uint64(off), write})
				if write {
					w.writeLat = append(w.writeLat, lat)
				} else {
					w.readLat = append(w.readLat, lat)
				}
			}
		}
	}
	if err := io.Close(p, fd); err != nil {
		w.r.errorf("bypassd thread %d: close: %v", t, err)
	}
}

func (w *rwMix) syncReader(p *sim.Proc) {
	pr := w.sys.NewProcess(ext4.Root)
	io, err := w.sys.NewFileIO(p, pr, core.EngineSync)
	if err != nil {
		w.r.errorf("sync reader: %v", err)
		return
	}
	fd, err := io.Open(p, rwPaths[1], false)
	if err != nil {
		w.r.errorf("sync reader: open: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(w.seed*1_000_003 - 1))
	buf := make([]byte, rwBlock)
	for b := 0; w.g.wait(p, b); b++ {
		for i := 0; i < rwSyncOps; i++ {
			blk := rng.Intn(rwSyncBytes / rwBlock)
			start := p.Now()
			if n, err := io.Pread(p, fd, buf, int64(blk)*rwBlock); err != nil || n != rwBlock {
				w.r.errorf("sync pread block %d: %d bytes, %v", blk, n, err)
			} else if !blockOK(buf, w.seed, 1, blk, 0) {
				w.r.errorf("sync pread block %d: wrong bytes", blk)
			}
			w.r.attempted++
			w.dig = digest(w.dig, int64(p.Now()-start))
		}
	}
	if err := io.Close(p, fd); err != nil {
		w.r.errorf("sync reader: close: %v", err)
	}
}

// snapshot reads the counters the per-layer metrics difference.
func (w *rwMix) snapshot() (sim.Time, uint64, device.Stats, [2]int64, [2]sim.Time) {
	h, m := w.sys.M.MMU.PWCStats()
	var ns [2]sim.Time
	for _, th := range w.threads {
		ns[0] += th.UserNS
		ns[1] += th.DeviceNS
	}
	return w.sys.Sim.Now(), w.sys.Sim.Processed(), w.sys.M.Dev.Stats(), [2]int64{h, m}, ns
}

// step runs one batch and returns the ops it issued.
func (w *rwMix) step() int64 {
	if w.batch == 0 {
		w.v0, w.ev0, w.dev0, w.pwc0, w.ns0 = w.snapshot()
	}
	w.g.batch()
	w.batch++
	w.digests = append(w.digests, w.dig)
	if w.batch == rwVirtBatches {
		w.v1, w.ev1, w.dev1, w.pwc1, w.ns1 = w.snapshot()
		if w.r.trace {
			w.heap0 = heapAfterGC()
		}
	}
	return rwBatchOps
}

// finish stops the procs, then reads every block of the BypassD file
// back through the kernel against the shadow and runs fsck.
func (w *rwMix) finish() {
	w.g.finish()
	w.sys.Sim.Spawn("verify", func(p *sim.Proc) {
		root := w.sys.NewProcess(ext4.Root)
		fd, err := root.Open(p, rwPaths[0], false)
		if err != nil {
			w.r.errorf("verify: open: %v", err)
			return
		}
		buf := make([]byte, 1<<20)
		bad := 0
		for off := int64(0); off < rwFileBytes; off += int64(len(buf)) {
			if n, err := root.Pread(p, fd, buf, off); err != nil || n != len(buf) {
				w.r.errorf("verify: pread at %d: %d bytes, %v", off, n, err)
				return
			}
			for i := 0; i < len(buf); i += rwBlock {
				blk := int((off + int64(i)) / rwBlock)
				if !blockOK(buf[i:i+rwBlock], w.seed, 0, blk, w.ver[blk]) {
					bad++
				}
			}
		}
		w.r.check(bad == 0, "rw-mix: %d blocks differ from the shadow after the run", bad)
		if err := root.Close(p, fd); err != nil {
			w.r.errorf("verify: close: %v", err)
		}
		err = w.sys.M.FS.Check(p)
		w.r.check(err == nil, "rw-mix: fsck: %v", err)
	})
	w.sys.Sim.Run()
}

func runRWMix(r *run) error {
	if r.trace {
		return rwMixTraced(r)
	}
	w, setup, err := timeSetups(rwSetups, func() (*rwMix, error) { return newRWMix(r, nil) }, (*rwMix).close)
	if err != nil {
		return err
	}
	defer w.close()
	r.set("setup_s", setup)
	var m meter
	m.run(rwVirtBatches, r.seconds, w.step)
	r.set("ops_per_s", m.rate())
	w.finish()
	return nil
}

// rwOverheadBatches is how many batches the traced and untraced
// machines each run to price the virtual-clock tracer.
const rwOverheadBatches = 16

func rwMixTraced(r *run) error {
	w, err := newRWMix(r, nil)
	if err != nil {
		return err
	}
	defer w.close()
	allocs := startAllocs()
	var m meter
	if err := profiled(r, func() { m.run(rwVirtBatches, r.seconds, w.step) }); err != nil {
		return err
	}
	a, b := allocs.perOp(m.ops)
	r.set("runtime.allocs_per_op", a)
	r.set("runtime.bytes_per_op", b)
	// Past the reported batches the driver keeps nothing per op.
	later := float64((w.batch - rwVirtBatches) * rwBatchOps)
	r.set("runtime.heap_growth_per_op", float64(int64(heapAfterGC())-int64(w.heap0))/later)
	vt, events, _, _, _ := w.snapshot()
	r.set("sim.host_ns_per_event", float64(m.host.Nanoseconds())/float64(events-w.ev0))
	r.set("sim.wall_ns_per_virtual_ns", float64(m.host.Nanoseconds())/float64(vt-w.v0))
	// Exact counts over the reported batches.
	vOps := float64(rwVirtBatches * rwBatchOps)
	r.set("sim.events_per_op", float64(w.ev1-w.ev0)/vOps)
	setDevice(r, w.dev0, w.dev1, vOps, w.sys.M.Dev.Stats())
	hits, misses := w.pwc1[0]-w.pwc0[0], w.pwc1[1]-w.pwc0[1]
	if hits+misses > 0 {
		r.set("iommu.pwc_hit_ratio", float64(hits)/float64(hits+misses))
	}
	faults, denials := w.sys.M.MMU.FaultStats()
	r.set("iommu.faults", float64(faults+denials))
	r.set("userlib.user_ns_per_op", float64(w.ns1[0]-w.ns0[0])/float64(w.virtOps))
	r.set("userlib.device_ns_per_op", float64(w.ns1[1]-w.ns0[1])/float64(w.virtOps))
	lib := w.sys.Lib(w.pr)
	r.set("userlib.direct_ops", float64(lib.DirectOps))
	r.set("userlib.fallback_ops", float64(lib.FallbackOps))
	r.set("userlib.retries", float64(lib.Stats.Retries))
	r.check(lib.FallbackOps == 0 && lib.Stats.Retries == 0, "rw-mix: %d fallbacks, %d retries without faults", lib.FallbackOps, lib.Stats.Retries)

	w.probeTranslation(r)

	var base meter
	base.run(rwOverheadBatches, 0, w.step)
	w.finish()
	w.setVirt(r)

	tw, err := newRWMix(r, trace.NewTracer("rw-mix"))
	if err != nil {
		return err
	}
	defer tw.close()
	var traced meter
	traced.run(rwOverheadBatches, 0, tw.step)
	r.check(tw.digests[rwOverheadBatches-1] == w.digests[rwOverheadBatches-1],
		"rw-mix: virtual latencies differ between the traced and untraced machine at one seed")
	r.set("trace.overhead_pct", 100*(median(base.rates)/median(traced.rates)-1))
	var sum [4]sim.Time
	var n int64
	for _, s := range tw.tr.Events() {
		if s.IsIO && s.Cat == string(core.EngineBypassD) && s.Name == "read" {
			for i := range sum {
				sum[i] += s.Phases[i]
			}
			n++
		}
	}
	if n > 0 {
		for i, name := range trace.PhaseNames {
			r.set("trace."+name+"_ns", float64(sum[i])/float64(n))
		}
	}
	tw.finish()
	return nil
}

// setVirt reports the virtual-clock results of the reported batches.
func (w *rwMix) setVirt(r *run) {
	r.set("virt.read_samples", float64(len(w.readLat)))
	r.set("virt.write_samples", float64(len(w.writeLat)))
	r.set("virt.read_p50_us", percentileUS(w.readLat, 50))
	r.set("virt.read_p999_us", percentileUS(w.readLat, 99.9))
	r.set("virt.write_p50_us", percentileUS(w.writeLat, 50))
	r.set("virt.write_p999_us", percentileUS(w.writeLat, 99.9))
	r.set("virt.open_samples", float64(len(w.openLat)))
	r.set("virt.open_p50_us", percentileUS(w.openLat, 50))
	r.set("virt.kiops", float64(w.virtOps)/(w.v1-w.v0).Seconds()/1e3)
}

// probeTranslation replays the recorded VBA stream of the BypassD
// threads through the IOMMU and through the page table's leaf lookup,
// timing each call from outside. It runs between batches, while every
// file is still mapped.
func (w *rwMix) probeTranslation(r *run) {
	mmu := w.sys.M.MMU
	devID := w.sys.M.Dev.Config().DevID
	segs := make([]iommu.Segment, 0, 4)
	bad := 0
	allocs := startAllocs()
	t0 := time.Now()
	for _, op := range w.vbas {
		res := mmu.TranslateInto(iommu.Request{PASID: w.pr.PASID, DevID: devID, VBA: op.vba, Bytes: rwBlock, Write: op.write}, segs)
		if res.Status != iommu.OK {
			bad++
		}
	}
	el := time.Since(t0)
	n := int64(len(w.vbas))
	a, _ := allocs.perOp(n)
	r.set("iommu.translate_host_ns", float64(el.Nanoseconds())/float64(n))
	r.set("iommu.translate_allocs", a)
	r.check(bad == 0, "rw-mix: %d of %d replayed translations failed", bad, n)

	bad = 0
	allocs = startAllocs()
	t0 = time.Now()
	for _, op := range w.vbas {
		if _, _, _, ok := w.pr.Table.LeafFor(op.vba); !ok {
			bad++
		}
	}
	el = time.Since(t0)
	a, _ = allocs.perOp(n)
	r.set("pagetable.leaffor_host_ns", float64(el.Nanoseconds())/float64(n))
	r.set("pagetable.leaffor_allocs", a)
	r.check(bad == 0, "rw-mix: %d of %d replayed leaf lookups failed", bad, n)
}
