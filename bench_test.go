package bypassd

// One benchmark per table and figure of the paper's evaluation, plus
// the DESIGN.md ablations. Each benchmark drives the corresponding
// harness in internal/experiments at reduced (Quick) scale so the
// whole suite completes in minutes; run cmd/bypassd-bench -full for
// paper-scale sweeps. Benchmarks report the experiment's headline
// metric alongside Go's usual timings.

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frontend"
	"repro/internal/tenants"
	"repro/internal/trace"
)

// benchParallel fans each experiment's sweep cells out to this many
// goroutines (the harness renders in sweep order, so results are
// unchanged — only wall time moves). Named bench.parallel because the
// testing package owns -parallel.
var benchParallel = flag.Int("bench.parallel", 1, "sweep-cell parallelism for experiment benchmarks")

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(experiments.Options{Quick: true, Seed: int64(i) + 1, Parallelism: *benchParallel})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.String())
		}
	}
}

// Tables.
func BenchmarkTable1Breakdown(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkTable4IOMMU(b *testing.B)     { benchExperiment(b, "T4") }
func BenchmarkTable5Fmap(b *testing.B)      { benchExperiment(b, "T5") }

// Figures.
func BenchmarkFig5ATS(b *testing.B)         { benchExperiment(b, "F5") }
func BenchmarkFig6LatBW(b *testing.B)       { benchExperiment(b, "F6") }
func BenchmarkFig7Breakdown(b *testing.B)   { benchExperiment(b, "F7") }
func BenchmarkFig8Sensitivity(b *testing.B) { benchExperiment(b, "F8") }
func BenchmarkFig9Scaling(b *testing.B)     { benchExperiment(b, "F9") }
func BenchmarkFig10Sharing(b *testing.B)    { benchExperiment(b, "F10") }
func BenchmarkFig11Fairness(b *testing.B)   { benchExperiment(b, "F11") }
func BenchmarkFig12Revocation(b *testing.B) { benchExperiment(b, "F12") }
func BenchmarkFig13WiredTiger(b *testing.B) { benchExperiment(b, "F13") }
func BenchmarkFig14CacheSweep(b *testing.B) { benchExperiment(b, "F14") }
func BenchmarkFig15BPFKV(b *testing.B)      { benchExperiment(b, "F15") }
func BenchmarkFig16KVell(b *testing.B)      { benchExperiment(b, "F16") }

// Ablations.
func BenchmarkAblationIOTLB(b *testing.B)          { benchExperiment(b, "A1") }
func BenchmarkAblationQueuePerThread(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkAblationAppend(b *testing.B)         { benchExperiment(b, "A3") }
func BenchmarkAblationWriteOverlap(b *testing.B)   { benchExperiment(b, "A4") }
func BenchmarkExtNonBlockingWrites(b *testing.B)   { benchExperiment(b, "A5") }
func BenchmarkExtExtentTableWalker(b *testing.B)   { benchExperiment(b, "A6") }

// Supplemental.
func BenchmarkSupDeviceGenerality(b *testing.B) { benchExperiment(b, "S1") }
func BenchmarkSupVMSupport(b *testing.B)        { benchExperiment(b, "S2") }

// BenchmarkDirect4KRead measures the headline data point — one warm
// 4 KiB BypassD read — end to end through the public API, reporting
// virtual latency per op. The system boots once outside the timed
// region: this is the steady-state cost of a read, the number the
// zero-alloc work targets (see BenchmarkBootDirect4KRead for the
// boot-inclusive variant).
func BenchmarkDirect4KRead(b *testing.B) {
	sys, io, fd, buf := bootDirect4K(b)
	defer sys.Close()
	var virtual Time
	read := func(p *Proc) {
		start := p.Now()
		if _, err := io.Pread(p, fd, buf, 4096); err != nil {
			b.Error(err)
		}
		virtual += p.Now() - start
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(sys, "bench", read)
	}
	b.StopTimer()
	b.ReportMetric(float64(virtual)/float64(b.N), "virtual-ns/op")
}

// BenchmarkBootDirect4KRead is the historical form of the headline
// benchmark: boot, create, fallocate, and one warm read per op. It
// tracks boot-path cost (ext4 Mkfs/Mount, page-table and queue
// setup), which the steady-state benchmark above deliberately hides.
func BenchmarkBootDirect4KRead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		direct4KRead(b)
	}
}

// throughputReads is the batch size of one throughput-benchmark op:
// enough reads per Run() that the spawn/drain cost of entering the
// simulation is amortized the way a real experiment amortizes it.
const throughputReads = 64

// benchSimThroughput drives batches of warm 4 KiB BypassD reads on one
// booted system and reports the simulator's event-dispatch rate —
// events/sec of host wall clock — alongside ns/op. traceOn measures
// the observability plane's overhead on the same workload.
func benchSimThroughput(b *testing.B, traceOn bool) {
	sys, io, fd, buf := bootDirect4K(b)
	defer sys.Close()
	if traceOn {
		// NewFileIO decorates with tracedIO only when the machine has
		// a tracer, so the traced handle must be created after this.
		sys.M.EnableTrace(trace.NewTracer("bench"))
		Run(sys, "boot-traced", func(p *Proc) {
			tio, err := sys.NewFileIO(p, sys.NewProcess(RootCred), EngineBypassD)
			if err != nil {
				b.Error(err)
				return
			}
			io = tio
			fd, _ = io.Open(p, "/bench", false)
			_, _ = io.Pread(p, fd, buf, 0) // warm
		})
	}
	var virtual Time
	batch := func(p *Proc) {
		start := p.Now()
		for j := 0; j < throughputReads; j++ {
			if _, err := io.Pread(p, fd, buf, 4096); err != nil {
				b.Error(err)
				return
			}
		}
		virtual += p.Now() - start
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := sys.Sim.Processed()
	for i := 0; i < b.N; i++ {
		Run(sys, "storm", batch)
	}
	b.StopTimer()
	events = sys.Sim.Processed() - events
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(virtual)/float64(b.N), "virtual-ns/op")
}

// BenchmarkSimThroughputDirectRead is the dispatch-rate gate: batches
// of steady-state BypassD reads, no tracing.
func BenchmarkSimThroughputDirectRead(b *testing.B) { benchSimThroughput(b, false) }

// BenchmarkSimThroughputTraceOn is the same workload with the trace
// plane recording every I/O span.
func BenchmarkSimThroughputTraceOn(b *testing.B) { benchSimThroughput(b, true) }

// BenchmarkSimThroughputTenantStorm measures dispatch rate under the
// multi-tenant QoS plane: competing open-loop tenants on a weighted
// arbiter, boot included — the simulator's worst-case event mix
// (timers, arbitration, cross-tenant interleaving).
func BenchmarkSimThroughputTenantStorm(b *testing.B) {
	sc := tenants.NoisyNeighbor("wrr", 2, 200, 200)
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		_, ev, err := tenants.Run(int64(i)+1, sc, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		events += ev
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFrontendThroughput measures the service tier end to end:
// a token-paced fleet at 2x saturation multiplexing its user
// population over the worker pool against per-device kvell stores,
// boot and store build included. Events/sec is the regression-gated
// number — the tier's fairness queues, admission bookkeeping, and
// backend round-trips all sit on the event path.
func BenchmarkFrontendThroughput(b *testing.B) {
	fl := frontend.ServiceFleet(frontend.AdmitToken, 2.0, 2, 8, 4000, 8000)
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		_, ev, err := frontend.RunCountedWorkers(int64(i)+1, fl, 1)
		if err != nil {
			b.Fatal(err)
		}
		events += ev
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimThroughputSharded is the TenantStorm workload spread
// over a four-SSD topology: one victim+hog pair per device, each
// device's event stream on its own shard merged by the canonical
// (at, shard, seq) key. The /w1 and /w4 sub-benchmarks run the same
// scenario's traffic phase on one and four host workers of the
// conservative epoch engine; their results are byte-identical (the
// worker-invariance tests pin this), so the pair isolates the
// parallel speedup. On a multi-core host w4 is the headline number;
// the w4/w1 ratio is gated by cmd/benchjson when the host has the
// cores to express it.
func BenchmarkSimThroughputSharded(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			sc := tenants.ScaleOut(4, 400, 400)
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				_, ev, err := tenants.Run(int64(i)+1, sc, core.RunOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				events += ev
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
