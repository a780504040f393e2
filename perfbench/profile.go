package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileBuckets are the layers a CPU sample is charged to: the
// repository's internal/<module> packages, the Go runtime, and this
// driver. A sample whose leaf frame is in the runtime stays in
// "runtime"; any other sample (a standard-library leaf included) is
// charged to the innermost frame that belongs to a bucket.
var profileBuckets = []string{
	"runtime", "driver",
	"sim", "userlib", "iommu", "pagetable", "device", "nvme", "kernel", "ext4",
	"trace", "frontend", "workload", "kvell", "experiments", "wtiger", "bpfkv",
	"tenants", "ycsb", "storage", "stats", "metrics", "core", "spdk", "fio", "faults",
}

// switchFrames mark a runtime sample as goroutine handoff: the channel
// round trip every simulated proc switch pays, and the scheduler and
// lock work behind it.
var switchFrames = setOf(
	"runtime.chanrecv", "runtime.chanrecv1", "runtime.chansend", "runtime.chansend1",
	"runtime.selectgo", "runtime.gopark", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.goready", "runtime.ready", "runtime.casgstatus",
	"runtime.lock2", "runtime.unlock2", "runtime.mcall", "runtime.futexsleep",
	"runtime.futexwakeup", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
	"runtime.startm", "runtime.wakep", "runtime.runqget", "runtime.runqput",
	"runtime.execute", "runtime.gogo", "runtime.goschedImpl",
)

// gcFrames mark a sample as garbage-collector work.
var gcFrames = setOf(
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
	"runtime.scanobject", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.gcStart", "runtime.stopTheWorldWithSema",
)

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// bucketOf maps a function name to its bucket, or "" for a frame that
// belongs to none (the standard library).
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench."):
		// A test binary names this package by its import path.
		return "driver"
	case strings.HasPrefix(fn, "repro/internal/"):
		mod := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, b := range profileBuckets {
			if b == mod {
				return b
			}
		}
	}
	return ""
}

// profiled runs fn under the CPU profiler and records each bucket's
// share of CPU time as <bucket>.cpu_pct, plus runtime.switch_pct,
// runtime.gc_pct and the share of samples the buckets cover.
func profiled(r *run, fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	stacks, err := parseProfile(&buf)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var total, covered, switching, gc, samples int64
	by := map[string]int64{}
	for _, s := range stacks {
		total += s.ns
		samples += s.count
		b := ""
		if len(s.frames) > 0 && bucketOf(s.frames[0]) == "runtime" {
			b = "runtime"
		} else {
			for _, f := range s.frames {
				if b = bucketOf(f); b != "" {
					break
				}
			}
		}
		if b == "" {
			continue
		}
		covered += s.ns
		by[b] += s.ns
		if b != "runtime" {
			continue
		}
		for _, f := range s.frames {
			if gcFrames[f] {
				gc += s.ns
				break
			}
		}
		for _, f := range s.frames {
			if switchFrames[f] {
				switching += s.ns
				break
			}
		}
	}
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	for _, b := range profileBuckets {
		r.set(b+".cpu_pct", pct(by[b]))
	}
	r.set("runtime.switch_pct", pct(switching))
	r.set("runtime.gc_pct", pct(gc))
	r.set("profile.coverage_pct", pct(covered))
	r.set("profile.samples", float64(samples))
	return nil
}

// stack is one distinct profiled stack: its frames leaf first, the
// samples that hit it and the CPU nanoseconds they stand for.
type stack struct {
	frames []string
	count  int64
	ns     int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what bucketing needs: each sample's function
// names (inlined frames expanded, leaf first) and its CPU time.
func parseProfile(rd io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(rd)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]int64{}    // function id -> string index
		strtab   []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("sample without a cpu value")
		}
		st := stack{count: s.vals[0], ns: s.vals[1]}
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strtab) {
					st.frames = append(st.frames, strtab[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint
// fields fn gets the value; for length-delimited fields the bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field that may be encoded
// either as one varint (data nil) or packed.
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
