package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// meta-churn: the control plane. One simulated thread, closed loop:
// each file is created, fallocated to 16 MiB and closed through the
// kernel, opened through BypassD (an fmap of 4096 file-table entries),
// written and read back once, and closed. Every mcFiles files the
// thread unlinks them all and calls sync, which is when ext4 frees
// unlinked blocks; without it the device fills up.
const (
	mcDeviceBytes = 4 << 30
	mcFileBytes   = 16 << 20
	mcFiles       = 64 // files per batch, unlinked and synced at its end
	mcVirtBatches = 4  // batches whose virtual-clock results are reported
	mcSetups      = 21

	// mcLifetime is how many batches one machine serves before the
	// driver replaces it with a fresh one at the same seed, whose
	// virtual results must then repeat the first machine's batch by
	// batch. Every BypassD open leaves page-table nodes behind (see
	// NOTES.md), so a machine's heap grows with the files it has
	// churned; a fixed lifetime keeps peak memory a function of the
	// workload rather than of how fast the host ran it.
	mcLifetime = 256
)

// hostSpan accumulates the host time of one kind of call.
type hostSpan struct {
	n  int64
	ns int64
}

func (h *hostSpan) since(t0 time.Time) { h.n++; h.ns += time.Since(t0).Nanoseconds() }

func (h *hostSpan) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.ns) / float64(h.n) / 1e3
}

// churnSpans are the driver's host spans around its calls into the
// kernel and UserLib, shared by every machine of a run.
type churnSpans struct {
	create, fallocate, unlink, sync, open hostSpan
}

type metaChurn struct {
	r     *run
	sys   *core.System
	g     *gate
	spans *churnSpans

	ready   bool // the thread reached its first batch
	batch   int
	dig     uint64
	digests []uint64
	want    []uint64 // the first machine's digests, for later machines
	free    int64    // free blocks after the first batch

	openLat, readLat, writeLat []sim.Time

	v0, v1   sim.Time
	ev0, ev1 uint64
	dev0     device.Stats
	dev1     device.Stats

	heap0  uint64  // live heap after batch 1 (traced runs)
	growth float64 // live-heap bytes retained per file over the lifetime
}

func newMetaChurn(r *run, spans *churnSpans) (*metaChurn, error) {
	sys, err := core.New(mcDeviceBytes)
	if err != nil {
		return nil, err
	}
	m := &metaChurn{r: r, sys: sys, g: newGate(sys.Sim), spans: spans}
	sys.Sim.Spawn("meta-churn", m.thread)
	sys.Sim.Run()
	if !m.ready {
		sys.Close()
		return nil, fmt.Errorf("meta-churn thread failed to start")
	}
	return m, nil
}

func (m *metaChurn) close() { m.sys.Close() }

// thread runs the lifecycles, one batch per gate release.
func (m *metaChurn) thread(p *sim.Proc) {
	pr := m.sys.NewProcess(ext4.Root)
	io, err := m.sys.NewFileIO(p, pr, core.EngineBypassD)
	if err != nil {
		m.r.errorf("meta-churn: %v", err)
		return
	}
	if err := pr.Mkdir(p, "/m", 0o755); err != nil {
		m.r.errorf("meta-churn: mkdir: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(m.r.seed))
	buf := make([]byte, rwBlock)
	var paths [mcFiles]string
	for i := range paths {
		paths[i] = fmt.Sprintf("/m/f%02d", i)
	}
	m.ready = true
	for b := 0; m.g.wait(p, b); b++ {
		virt := b < mcVirtBatches
		for i, path := range paths {
			if err := m.lifecycle(p, pr, io, rng, buf, b*mcFiles+i, path, virt); err != nil {
				m.r.errorf("meta-churn file %d: %v", b*mcFiles+i, err)
			}
		}
		for _, path := range paths {
			t0 := time.Now()
			err := pr.Unlink(p, path)
			m.spans.unlink.since(t0)
			m.r.attempted++
			if err != nil {
				m.r.errorf("meta-churn: unlink %s: %v", path, err)
			}
		}
		t0 := time.Now()
		err := pr.Sync(p)
		m.spans.sync.since(t0)
		m.r.attempted++
		if err != nil {
			m.r.errorf("meta-churn: sync: %v", err)
		}
		m.dig = digest(m.dig, int64(p.Now()))
	}
}

// lifecycle runs one file from create to close and verifies the byte
// image it wrote.
func (m *metaChurn) lifecycle(p *sim.Proc, pr *kernel.Process, io core.FileIO, rng *rand.Rand, buf []byte, file int, path string, virt bool) error {
	m.r.attempted++
	t0 := time.Now()
	fd, err := pr.Create(p, path, 0o644)
	m.spans.create.since(t0)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	t0 = time.Now()
	err = pr.Fallocate(p, fd, mcFileBytes)
	m.spans.fallocate.since(t0)
	if err != nil {
		return fmt.Errorf("fallocate: %w", err)
	}
	if err := pr.Close(p, fd); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	start := p.Now()
	t0 = time.Now()
	bfd, err := io.Open(p, path, true)
	m.spans.open.since(t0)
	if err != nil {
		return fmt.Errorf("bypassd open: %w", err)
	}
	opened := p.Now()
	blk := rng.Intn(mcFileBytes / rwBlock)
	off := int64(blk) * rwBlock
	fillBlock(buf, m.r.seed, file, blk, 1)
	if n, err := io.Pwrite(p, bfd, buf, off); err != nil || n != rwBlock {
		return fmt.Errorf("pwrite: %d bytes, %v", n, err)
	}
	written := p.Now()
	clear(buf)
	if n, err := io.Pread(p, bfd, buf, off); err != nil || n != rwBlock {
		return fmt.Errorf("pread: %d bytes, %v", n, err)
	}
	read := p.Now()
	if !blockOK(buf, m.r.seed, file, blk, 1) {
		return fmt.Errorf("pread of block %d returned wrong bytes", blk)
	}
	if err := io.Close(p, bfd); err != nil {
		return fmt.Errorf("bypassd close: %w", err)
	}
	m.dig = digest(m.dig, int64(opened-start), int64(written-opened), int64(read-written), int64(p.Now()))
	if virt {
		m.openLat = append(m.openLat, opened-start)
		m.writeLat = append(m.writeLat, written-opened)
		m.readLat = append(m.readLat, read-written)
	}
	return nil
}

// step runs one batch and returns the lifecycles it completed.
func (m *metaChurn) step() int64 {
	if m.batch == 0 {
		m.v0, m.ev0, m.dev0 = m.sys.Sim.Now(), m.sys.Sim.Processed(), m.sys.M.Dev.Stats()
	}
	m.g.batch()
	m.batch++
	m.digests = append(m.digests, m.dig)
	if m.want != nil {
		m.r.check(m.dig == m.want[m.batch-1], "meta-churn: batch %d differs from the first machine's at this seed", m.batch)
	}
	switch m.batch {
	case 1:
		m.free = m.sys.M.FS.FreeBlocks()
		if m.r.trace {
			m.heap0 = heapAfterGC()
		}
	case mcVirtBatches:
		m.v1, m.ev1, m.dev1 = m.sys.Sim.Now(), m.sys.Sim.Processed(), m.sys.M.Dev.Stats()
	case mcLifetime:
		if m.r.trace {
			m.growth = float64(int64(heapAfterGC())-int64(m.heap0)) / ((mcLifetime - 1) * mcFiles)
		}
	}
	return mcFiles
}

// finish stops the thread and runs fsck. Every batch ends by
// unlinking its files and syncing, so the free-block count must be back
// where the first batch left it; a block leaked in any batch shows.
func (m *metaChurn) finish() {
	m.g.finish()
	free := m.sys.M.FS.FreeBlocks()
	m.r.check(free == m.free, "meta-churn: %d free blocks after %d batches, %d after the first", free, m.batch, m.free)
	m.sys.Sim.Spawn("fsck", func(p *sim.Proc) {
		err := m.sys.M.FS.Check(p)
		m.r.check(err == nil, "meta-churn: fsck: %v", err)
	})
	m.sys.Sim.Run()
}

// churn runs batches on mt, from the first machine on, for r.seconds
// and at least one batch into a second machine. Each machine serves
// mcLifetime batches and is then checked, closed and replaced; the
// last is checked and closed on return. It returns the totals over
// every machine's batches: events dispatched and virtual time advanced.
func churn(r *run, first *metaChurn, mt *meter) (events uint64, virt sim.Time, err error) {
	cur := first
	retire := func() {
		cur.finish()
		events += cur.sys.Sim.Processed() - cur.ev0
		virt += cur.sys.Sim.Now() - cur.v0
		cur.close()
	}
	mt.run(mcLifetime+1, r.seconds, func() int64 {
		if err != nil {
			return 0
		}
		if cur.batch == mcLifetime {
			retire()
			if cur, err = newMetaChurn(r, first.spans); err != nil {
				return 0
			}
			cur.want = first.digests
		}
		return cur.step()
	})
	if err == nil {
		retire()
	}
	return events, virt, err
}

func runMetaChurn(r *run) error {
	if r.trace {
		return metaChurnTraced(r)
	}
	spans := &churnSpans{}
	m, setup, err := timeSetups(mcSetups, func() (*metaChurn, error) { return newMetaChurn(r, spans) }, (*metaChurn).close)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	var mt meter
	if _, _, err := churn(r, m, &mt); err != nil {
		return err
	}
	r.set("ops_per_s", mt.rate())
	return nil
}

func metaChurnTraced(r *run) error {
	spans := &churnSpans{}
	m, err := newMetaChurn(r, spans)
	if err != nil {
		return err
	}
	allocs := startAllocs()
	var mt meter
	var events uint64
	var virt sim.Time
	if perr := profiled(r, func() { events, virt, err = churn(r, m, &mt) }); perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	a, b := allocs.perOp(mt.ops)
	r.set("runtime.allocs_per_op", a)
	r.set("runtime.bytes_per_op", b)
	r.set("runtime.heap_growth_per_op", m.growth)
	r.set("sim.host_ns_per_event", float64(mt.host.Nanoseconds())/float64(events))
	r.set("sim.wall_ns_per_virtual_ns", float64(mt.host.Nanoseconds())/float64(virt))

	vOps := float64(mcVirtBatches * mcFiles)
	r.set("sim.events_per_op", float64(m.ev1-m.ev0)/vOps)
	setDevice(r, m.dev0, m.dev1, vOps, m.sys.M.Dev.Stats())

	r.set("kernel.create_host_us", spans.create.meanUS())
	r.set("kernel.fallocate_host_us", spans.fallocate.meanUS())
	r.set("kernel.unlink_host_us", spans.unlink.meanUS())
	r.set("kernel.sync_host_us", spans.sync.meanUS())
	r.set("userlib.open_host_us", spans.open.meanUS())

	r.set("virt.open_samples", float64(len(m.openLat)))
	r.set("virt.open_p50_us", percentileUS(m.openLat, 50))
	r.set("virt.read_samples", float64(len(m.readLat)))
	r.set("virt.read_p50_us", percentileUS(m.readLat, 50))
	r.set("virt.read_p999_us", percentileUS(m.readLat, 99.9))
	r.set("virt.write_samples", float64(len(m.writeLat)))
	r.set("virt.write_p50_us", percentileUS(m.writeLat, 50))
	r.set("virt.write_p999_us", percentileUS(m.writeLat, 99.9))
	return nil
}
