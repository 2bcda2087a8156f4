// Package pool is the repository's one worker pool: it runs n independent
// jobs, addressed by index, on a fixed number of goroutines. The benchmark
// sweep (experiments.RunSweep) runs its cells on it and the failure-schedule
// explorer (explore.Run) the branches of each exploration level.
//
// A job writes its result into the caller's slot i and nowhere else, so
// what the caller reads back after Run is the same for any worker count;
// whatever the caller derives from the results in index order is then as
// deterministic as the jobs themselves.
package pool

import (
	"context"
	"fmt"
	"sync"
)

// Run calls job(i) for every i in [0, n) on min(workers, n) goroutines and
// returns once every job it started has returned: no goroutine outlives it.
//
// On ctx cancellation Run stops handing out indices and returns ctx.Err();
// some jobs never ran, so the caller must discard every slot. A job that
// panics is recovered on its worker and, after all workers have stopped,
// re-raised on the calling goroutine — the lowest panicking index, named,
// with the original value but not its stack, which is gone by then.
// Otherwise Run returns the error of the lowest failing index, or nil.
func Run(ctx context.Context, n, workers int, job func(i int) error) error {
	workers = max(1, min(workers, n))
	errs := make([]error, n)
	panics := make([]any, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				panics[i], errs[i] = call(job, i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("pool: job %d: %v", i, p))
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call runs one job, turning its panic into a value.
func call(job func(int) error, i int) (p any, err error) {
	defer func() { p = recover() }()
	return nil, job(i)
}
