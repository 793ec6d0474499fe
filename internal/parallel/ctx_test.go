package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCtxRunsAllTasks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran [64]atomic.Bool
		err := ForEachCtx(context.Background(), workers, len(ran), func(i int) error {
			ran[i].Store(true)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

func TestForEachCtxLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), workers, 32, func(i int) error {
			if i == 7 || i == 21 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: want lowest-index error, got %v", workers, err)
		}
	}
}

func TestForEachCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachCtx(ctx, 4, 10, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran {
		t.Error("task ran despite pre-cancelled context")
	}
}

// TestForEachCtxStopsPromptly cancels mid-batch and checks that no new
// task starts after cancellation: beyond the tasks that had started by
// the time cancel() returned, each worker may still start the one task
// it had already claimed.
func TestForEachCtxStopsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, atCancel atomic.Int64
		const n = 10_000
		err := ForEachCtx(ctx, workers, n, func(i int) error {
			if started.Add(1) == 3 {
				cancel()
				atCancel.Store(started.Load())
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if got, bound := started.Load(), atCancel.Load()+int64(workers); got > bound {
			t.Errorf("workers=%d: %d tasks started, %d had started when cancel returned: more than one per worker after cancellation",
				workers, got, atCancel.Load())
		}
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	err := ForEachCtx(ctx, 4, 100, func(i int) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestForEachCtxNoGoroutineLeak cancels many batches and verifies the
// goroutine count returns to its baseline: every worker exits even when
// its batch is abandoned mid-flight.
func TestForEachCtxNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		_ = ForEachCtx(ctx, 8, 1000, func(i int) error {
			if started.Add(1) == 2 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
}

// TestForEachCtxCancellationBeatsTaskError: once the context is done,
// the context error is reported even if tasks also failed.
func TestForEachCtxCancellationBeatsTaskError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtx(ctx, 2, 100, func(i int) error {
		cancel()
		return fmt.Errorf("task %d failed", i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled to win over task errors, got %v", err)
	}
}

// TestForEachCtxMatchesForEachErr: without cancellation, results and
// error selection are identical to ForEachErr for any worker count.
func TestForEachCtxMatchesForEachErr(t *testing.T) {
	const n = 200
	want := make([]int64, n)
	_ = ForEachErr(1, n, func(i int) error {
		want[i] = TaskSeed(42, uint64(i))
		return nil
	})
	for _, workers := range []int{1, 3, 8} {
		got := make([]int64, n)
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			got[i] = TaskSeed(42, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}
