package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEveryIndexOnce runs every job exactly once, its result in its own
// slot, for worker counts below, at and above the job count.
func TestEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 2, 5, n, 3 * n} {
		out := make([]int, n)
		var calls atomic.Int64
		if err := Run(context.Background(), n, workers, func(i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
	if err := Run(context.Background(), 0, 4, func(int) error { panic("no job to run") }); err != nil {
		t.Fatal(err)
	}
}

// TestLowestErrorWins returns the error of the lowest failing index,
// whichever worker finished first.
func TestLowestErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), 20, workers, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7" {
			t.Fatalf("workers=%d: got %v, want job 7", workers, err)
		}
	}
}

// TestPanicIsReraisedOnCaller recovers a job's panic on its worker and
// re-raises the lowest panicking index on the calling goroutine.
func TestPanicIsReraisedOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = Run(context.Background(), 10, workers, func(i int) error {
				if i >= 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return nil
			})
			return nil
		}()
		if s, ok := got.(string); !ok || !strings.Contains(s, "pool: job 3: boom 3") {
			t.Fatalf("workers=%d: recovered %v, want job 3's panic", workers, got)
		}
	}
}

// TestCancelStopsFeeding cancels the context from inside a job: Run stops
// handing out indices, returns ctx.Err() rather than the jobs' outcome, and
// leaves no worker behind.
func TestCancelStopsFeeding(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000
	var ran atomic.Int64
	err := Run(ctx, n, 4, func(i int) error {
		ran.Add(1)
		if i == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() == n {
		t.Fatal("every job ran after cancellation")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
