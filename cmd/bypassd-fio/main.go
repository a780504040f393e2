// Command bypassd-fio runs ad-hoc microbenchmarks against any of the
// compared engines, in the spirit of the fio jobs used throughout the
// paper's evaluation.
//
//	bypassd-fio -engine bypassd -bs 4096 -rw randread -threads 4 -ops 1000
//	bypassd-fio -engine sync -rw randwrite -procs   # process per thread
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/iommu"
	"repro/internal/sim"
)

func main() {
	var (
		engine  = flag.String("engine", "bypassd", "sync | libaio | io_uring | spdk | bypassd")
		rw      = flag.String("rw", "randread", "randread | randwrite")
		bs      = flag.Int("bs", 4096, "block size in bytes (sector aligned)")
		threads = flag.Int("threads", 1, "worker threads")
		ops     = flag.Int("ops", 500, "operations per thread")
		size    = flag.Int64("filesize", 64<<20, "per-worker file size in bytes")
		procs   = flag.Bool("procs", false, "one process per thread (sharing layout)")
		delay   = flag.Int64("vba-delay", -1, "fixed VBA translation latency in ns (-1 = modelled)")
		seed    = flag.Int64("seed", 1, "offset stream seed")
	)
	flag.Parse()

	write := false
	switch *rw {
	case "randread":
	case "randwrite":
		write = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -rw %q\n", *rw)
		os.Exit(2)
	}

	spec := fio.Spec{
		IOMMU: func(c *iommu.Config) { c.FixedVBALatency = sim.Time(*delay) },
		Seed:  *seed,
	}
	res, err := fio.Run(spec, []fio.Group{{
		Name:             "job",
		Engine:           core.Engine(*engine),
		Write:            write,
		BS:               *bs,
		Threads:          *threads,
		OpsPerThread:     *ops,
		FileBytes:        *size,
		ProcessPerThread: *procs,
	}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fio: %v\n", err)
		os.Exit(1)
	}
	r := res["job"]
	fmt.Printf("engine=%s rw=%s bs=%d threads=%d procs=%v\n", *engine, *rw, *bs, *threads, *procs)
	fmt.Printf("  ops        %d\n", r.Ops)
	fmt.Printf("  elapsed    %v (virtual)\n", r.Elapsed())
	fmt.Printf("  lat mean   %v\n", r.Lat.Mean())
	fmt.Printf("  lat p50    %v\n", r.Lat.Percentile(50))
	fmt.Printf("  lat p99    %v\n", r.Lat.Percentile(99))
	fmt.Printf("  lat p99.9  %v\n", r.Lat.Percentile(99.9))
	fmt.Printf("  IOPS       %.0f\n", r.IOPS())
	fmt.Printf("  bandwidth  %.1f MB/s\n", r.Bandwidth()/1e6)
}
