package experiments

import (
	"sync"
	"sync/atomic"
)

// sweepMap evaluates fn(i) for every i in [0, n) and returns the
// results in index order. With o.Parallelism > 1, up to that many
// cells run concurrently, each typically booting its own simulated
// system; determinism is unaffected because each cell derives its
// seed from o.Seed and i, never from execution order, and the caller
// renders the returned slice in index order.
//
// Every cell runs even after one fails, and the lowest-index error is
// returned, so a failed sweep does the same work — and leaves the same
// metrics and fault counts behind — at any parallelism.
func sweepMap[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := min(o.Parallelism, n)
	if workers <= 1 {
		for i := range out {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
