package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results must land in input order even when later items
// finish first (earlier items sleep longer).
func TestMapOrdering(t *testing.T) {
	const n = 64
	out, err := Map(8, n, func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSerialDegenerate: workers == 1 must run items strictly in order
// on the calling goroutine, reproducing a plain serial loop.
func TestMapSerialDegenerate(t *testing.T) {
	caller := goroutineID()
	var order []int
	_, err := Map(1, 10, func(i int) (int, error) {
		if goroutineID() != caller {
			t.Error("workers=1 ran on a different goroutine")
		}
		order = append(order, i) // no lock: must be single-threaded
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v, want ascending", order)
		}
	}
}

// TestMapPanicSurfacesAsError: a panic in one worker must come back as a
// *PanicError from Map, not deadlock the pool or kill the process.
func TestMapPanicSurfacesAsError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := Map(workers, 32, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic value %v, stack len %d", workers, pe.Value, len(pe.Stack))
		}
		if msg := pe.Error(); msg != "parallel: worker panicked: boom" {
			t.Fatalf("workers=%d: Error() = %q, want one line without the stack", workers, msg)
		}
	}
}

// TestMapErrorDeterministic: when several items fail, Map must report the
// error of the smallest input index, regardless of completion order.
func TestMapErrorDeterministic(t *testing.T) {
	err2 := errors.New("err2")
	err5 := errors.New("err5")
	for trial := 0; trial < 20; trial++ {
		_, err := Map(4, 8, func(i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(2 * time.Millisecond) // finishes after index 5's error
				return 0, err2
			case 5:
				return 0, err5
			}
			return i, nil
		})
		if !errors.Is(err, err2) {
			t.Fatalf("trial %d: err = %v, want err2 (smallest failing index)", trial, err)
		}
	}
}

// TestMapErrorCancelsDispatch: after an item fails, not-yet-started items
// must not be dispatched.
func TestMapErrorCancelsDispatch(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(2, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d items started after early error; dispatch not cancelled", n)
	}
}

// TestMapCtxCancelMidBatch: cancelling the context stops dispatch and
// returns ctx.Err().
func TestMapCtxCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := MapCtx(ctx, 4, 1000, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 10 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 500 {
		t.Fatalf("%d items started after cancel", n)
	}
}

// TestMapEmptyAndDefaults: n <= 0 is a no-op; workers <= 0 picks the
// process default.
func TestMapEmptyAndDefaults(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty Map: out=%v err=%v", out, err)
	}
	SetDefault(3)
	if Default() != 3 {
		t.Fatalf("Default() = %d after SetDefault(3)", Default())
	}
	SetDefault(0)
	if Default() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() = %d, want GOMAXPROCS", Default())
	}
	out, err = Map(0, 5, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 5 {
		t.Fatalf("default-workers Map: out=%v err=%v", out, err)
	}
}

// TestMemoSingleFlight hammers one Memo from 16 goroutines: every key's
// compute function must run exactly once and all callers must observe the
// same value.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo[int, int]
	var computes [8]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for rep := 0; rep < 200; rep++ {
				for k := 0; k < 8; k++ {
					v := m.Do(k, func() int {
						computes[k].Add(1)
						time.Sleep(50 * time.Microsecond) // widen the race window
						return k * 100
					})
					if v != k*100 {
						t.Errorf("Do(%d) = %d, want %d", k, v, k*100)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
	if m.Len() != 8 {
		t.Errorf("Len() = %d, want 8", m.Len())
	}
}

// goroutineID extracts the current goroutine's numeric id from the first
// line of its stack trace ("goroutine N [running]:"). Test-only.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	fields := strings.Fields(string(buf))
	if len(fields) < 2 {
		return string(buf)
	}
	return fields[1]
}
