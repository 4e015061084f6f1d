package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapErrNonRetryableFailsImmediately: a fail-fast item error is the
// run's verdict after a single call.
func TestMapErrNonRetryableFailsImmediately(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("deterministic failure")
	_, errs, err := MapErr(context.Background(), RunOpts{Workers: 1}, 1,
		func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			return 0, boom
		})
	if !errors.Is(err, boom) || !errors.Is(errs[0], boom) {
		t.Fatalf("err=%v errs=%v, want %v", err, errs, boom)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a failing item, want 1", calls.Load())
	}
}

// TestMapErrPanicNotRetried: a fail-fast panic surfaces as *PanicError
// after a single call.
func TestMapErrPanicNotRetried(t *testing.T) {
	var calls atomic.Int64
	_, errs, err := MapErr(context.Background(), RunOpts{Workers: 1}, 1,
		func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			panic("boom")
		})
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.As(errs[0], &pe) {
		t.Fatalf("err=%v, want *PanicError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a panic, want 1", calls.Load())
	}
}

func TestMapErrKeepGoingCollectsAllErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls [8]atomic.Int64
		results, errs, err := MapErr(context.Background(),
			RunOpts{Workers: workers, KeepGoing: true}, 8,
			func(_ context.Context, i int) (int, error) {
				calls[i].Add(1)
				if i%2 == 1 {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				return i * 10, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: run-level err %v with KeepGoing, want nil", workers, err)
		}
		for i := 0; i < 8; i++ {
			// One attempt per item: a failed cell is not run again.
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times, want exactly 1", workers, i, n)
			}
			if i%2 == 1 {
				if errs[i] == nil {
					t.Fatalf("workers=%d: cell %d error lost", workers, i)
				}
			} else if errs[i] != nil || results[i] != i*10 {
				t.Fatalf("workers=%d: cell %d = (%d, %v), want (%d, nil)", workers, i, results[i], errs[i], i*10)
			}
		}
	}
}

func TestMapErrKeepGoingPanicBecomesCellError(t *testing.T) {
	results, errs, err := MapErr(context.Background(),
		RunOpts{Workers: 4, KeepGoing: true}, 6,
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("cell 3 exploded")
			}
			return i, nil
		})
	if err != nil {
		t.Fatalf("run-level err %v, want nil (pool must survive the panic)", err)
	}
	var pe *PanicError
	if !errors.As(errs[3], &pe) {
		t.Fatalf("cell 3 error %v, want *PanicError", errs[3])
	}
	for i := 0; i < 6; i++ {
		if i != 3 && (errs[i] != nil || results[i] != i) {
			t.Fatalf("cell %d = (%d, %v), want (%d, nil)", i, results[i], errs[i], i)
		}
	}
}

func TestMapErrCancelReportsCtxError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := MapErr(ctx, RunOpts{Workers: 1, KeepGoing: true}, 4,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want Canceled even with KeepGoing", err)
	}
}
