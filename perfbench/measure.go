package main

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
)

// gate releases a simulation's long-lived procs one batch at a time,
// so the driver can read the host clock between batches while the
// procs keep their open files, queues and mappings. Each proc calls
// wait before its batch b; a batch ends when every proc is parked
// waiting for the next one and the event queue has drained.
type gate struct {
	s        *sim.Sim
	c        *sim.Cond
	released int
	stop     bool
}

func newGate(s *sim.Sim) *gate { return &gate{s: s, c: s.NewCond()} }

// wait parks p until batch b is released. It returns false when the
// driver has stopped the workload instead.
func (g *gate) wait(p *sim.Proc, b int) bool {
	for g.released <= b && !g.stop {
		g.c.Wait(p)
	}
	return !g.stop
}

// batch runs one batch to completion.
func (g *gate) batch() {
	g.released++
	g.c.Broadcast()
	g.s.Run()
}

// finish releases every proc to clean up and return.
func (g *gate) finish() {
	g.stop = true
	g.c.Broadcast()
	g.s.Run()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianSeconds is median over durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// percentileUS returns the nearest-rank q-th percentile (q in [0,100])
// of virtual latencies, in microseconds. It sorts lat in place.
func percentileUS(lat []sim.Time, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := int(math.Ceil(q / 100 * float64(len(lat))))
	if rank < 1 {
		rank = 1
	}
	return lat[rank-1].Micros()
}

// digest folds values into an order-sensitive 64-bit hash; two runs
// at one seed must produce the same digest of their virtual results.
func digest(h uint64, vs ...int64) uint64 {
	for _, v := range vs {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// blockWord is the first 8-byte word of block blk of file file at
// write version ver; later words step by a Weyl increment, so every
// (file, block, version) has its own 4 KiB image and a stale, torn or
// misdirected read shows.
func blockWord(seed int64, file, blk int, ver uint32) uint64 {
	return mix64(uint64(seed)*0x2545f4914f6cdd1d ^ uint64(file)<<58 ^ uint64(blk)<<26 ^ uint64(ver))
}

const weyl = 0x9e3779b97f4a7c15

// fillBlock writes the image of (file, blk, ver) into buf.
func fillBlock(buf []byte, seed int64, file, blk int, ver uint32) {
	w := blockWord(seed, file, blk, ver)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
		w += weyl
	}
}

// blockOK reports whether buf holds the image of (file, blk, ver).
func blockOK(buf []byte, seed int64, file, blk int, ver uint32) bool {
	w := blockWord(seed, file, blk, ver)
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != w {
			return false
		}
		w += weyl
	}
	return true
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setDevice reports the device commands and bytes per op between two
// snapshots of its counters, and the commands it has failed so far.
func setDevice(r *run, from, to device.Stats, ops float64, now device.Stats) {
	cmds := (to.Reads + to.Writes + to.Flushes) - (from.Reads + from.Writes + from.Flushes)
	r.set("device.cmds_per_op", float64(cmds)/ops)
	r.set("device.bytes_per_op", float64((to.BytesRead+to.BytesWrite)-(from.BytesRead+from.BytesWrite))/ops)
	r.set("device.faults", float64(now.Faults))
}

// allocCounter measures heap allocations over an interval.
type allocCounter struct{ mallocs, bytes uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

// perOp returns allocations and bytes allocated per op since start.
func (a allocCounter) perOp(ops int64) (allocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops <= 0 {
		return 0, 0
	}
	return float64(ms.Mallocs-a.mallocs) / float64(ops), float64(ms.TotalAlloc-a.bytes) / float64(ops)
}

// heapAfterGC collects garbage and returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timeSetups runs setup n times and returns the median host seconds;
// every instance but the last is torn down with discard and collected,
// so the peak resident set reflects one live instance.
func timeSetups[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0))
		if i < n-1 {
			discard(v)
			runtime.GC()
		}
		last = v
	}
	return last, medianSeconds(ds), nil
}

// window is the least host time one measurement window spans.
const window = 100 * time.Millisecond

// meter times a workload in short windows. On a shared virtual CPU the
// host's speed drifts by tens of percent within seconds, and
// interference only ever slows a window down, so the reported
// throughput is an upper percentile of the window rates: the rate the
// workload sustains whenever the host lets it run.
type meter struct {
	rates []float64 // ops per host second, one per window
	host  time.Duration
	ops   int64
}

// ratePercentile is the percentile of window rates reported.
const ratePercentile = 90

// run calls unit, which returns the ops it completed, until it has
// been called at least min times and, when d > 0, d of host time has
// passed.
func (m *meter) run(min int, d time.Duration, unit func() int64) {
	t0 := time.Now()
	for calls := 0; calls < min || (d > 0 && time.Since(t0) < d); {
		w0 := time.Now()
		var ops int64
		for {
			ops += unit()
			calls++
			if time.Since(w0) >= window || (d == 0 && calls >= min) {
				break
			}
		}
		dur := time.Since(w0)
		m.rates = append(m.rates, float64(ops)/dur.Seconds())
		m.host += dur
		m.ops += ops
	}
}

// rate is the reported throughput in ops per host second.
func (m *meter) rate() float64 { return percentile(m.rates, ratePercentile) }

// percentile returns the nearest-rank q-th percentile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
