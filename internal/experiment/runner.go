package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adamant/internal/metrics"
)

// Runner fans independent experiment runs out over a worker pool. Every run
// builds its own simulation kernel, network, and protocol stack from its
// Config (including the seed), so runs share no mutable state and results
// are bit-identical regardless of worker count or completion order — the
// pool changes wall-clock time, never output. The zero value runs with
// GOMAXPROCS workers.
type Runner struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Progress, when non-nil, is called after each run completes with the
	// number of finished runs and the total. Calls are serialized (the
	// callback needs no locking of its own) but may arrive from any worker
	// goroutine, and done is monotonically increasing across calls.
	Progress func(done, total int)
}

func (r *Runner) jobs() int {
	if r != nil && r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// RunMany executes every config and returns the summaries in input order.
// On the first failure the remaining queue is abandoned (in-flight runs
// finish), and that first error is returned.
func (r *Runner) RunMany(configs []Config) ([]metrics.Summary, error) {
	total := len(configs)
	sums := make([]metrics.Summary, total)
	err := r.ForEach(total, func(i int) error {
		s, err := Run(configs[i])
		if err != nil {
			return fmt.Errorf("experiment: run %d of %d: %w", i+1, total, err)
		}
		sums[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}

// ForEach invokes fn(i) for every i in [0, n) across the worker pool.
// Indices are claimed by atomic increment, so fn observes each index
// exactly once; fn must write results into caller-owned, index-disjoint
// storage (no two calls share a slot). The first error cancels the
// remaining queue (in-flight calls finish) and is returned. Progress, if
// set, fires serially after each successful call.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.jobs()
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var (
		next int64      = -1
		done int        // guarded by mu
		mu   sync.Mutex // serializes Progress
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					cancel(err)
					return
				}
				if r.Progress != nil {
					mu.Lock()
					done++
					r.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}
