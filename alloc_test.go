package bypassd

import (
	"os"
	"testing"
)

// bootDirect4K boots a system, creates and preallocates /bench, opens
// it through the BypassD engine, and issues one warm read so every
// lazy structure (file table, IOTLB, queue pair, DMA buffer) exists.
// The returned handles drive steady-state reads: the system is live
// and the caller owns sys.Close().
func bootDirect4K(t testing.TB) (sys *System, io FileIO, fd int, buf []byte) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 4096)
	Run(sys, "boot", func(p *Proc) {
		pr := sys.NewProcess(RootCred)
		f, err := pr.Create(p, "/bench", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, f, 1<<20); err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, f)
		_ = pr.Close(p, f)
		io, err = sys.NewFileIO(p, sys.NewProcess(RootCred), EngineBypassD)
		if err != nil {
			t.Error(err)
			return
		}
		fd, _ = io.Open(p, "/bench", false)
		_, _ = io.Pread(p, fd, buf, 0) // warm
		if _, err := io.Pread(p, fd, buf, 4096); err != nil {
			t.Error(err)
		}
	})
	return sys, io, fd, buf
}

// direct4KRead is one boot-inclusive iteration: boot a system, create
// a file, issue one warm 4 KiB BypassD read, tear down.
func direct4KRead(t testing.TB) {
	sys, _, _, _ := bootDirect4K(t)
	sys.Close()
}

// TestDirect4KReadAllocBudget is the `make bench-check` regression
// gate: a steady-state 4 KiB read (system booted once, pools warm)
// must stay within single digits of heap allocations per op — the
// zero-alloc dispatch work's contract. Gated behind BENCH_CHECK=1 so
// ordinary `go test ./...` runs — which share the process with
// unrelated parallel tests — don't flake on cross-test allocation
// noise.
func TestDirect4KReadAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	const budget = 10
	sys, io, fd, buf := bootDirect4K(t)
	defer sys.Close()
	read := func(p *Proc) {
		if _, err := io.Pread(p, fd, buf, 4096); err != nil {
			t.Error(err)
		}
	}
	Run(sys, "alloc-warm", read) // warm sync.Pools and the proc free list
	allocs := testing.AllocsPerRun(20, func() { Run(sys, "alloc-check", read) })
	t.Logf("Direct4KRead steady state: %.0f allocs/op (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("steady-state Direct4KRead allocates %.0f objects/op, budget is %d — the hot path regressed", allocs, budget)
	}
}

// TestBootDirect4KReadAllocBudget bounds the boot-inclusive path —
// Mkfs, Mount, page tables, queues, one read, teardown — so boot-cost
// regressions stay visible even though the steady-state gate above
// no longer sees them. (The seed measured ~2900; pooling brought it
// under 200, coroutine procs raised it to ~219, and running the
// device's command path as scheduler callbacks brought it to ~190.)
func TestBootDirect4KReadAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	const budget = 200
	direct4KRead(t) // warm sync.Pools and lazy global state
	allocs := testing.AllocsPerRun(5, func() { direct4KRead(t) })
	t.Logf("BootDirect4KRead: %.0f allocs/op (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("BootDirect4KRead allocates %.0f objects/op, budget is %d — the boot path regressed", allocs, budget)
	}
}
