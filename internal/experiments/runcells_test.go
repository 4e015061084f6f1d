package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mpppb/internal/journal"
	"mpppb/internal/parallel"
)

// TestRunCellsPanicFailsOnceAndResumeRecomputes pins the one-attempt
// failure semantics at the driver choke point: a panicking cell runs
// exactly once, is recorded as one failure (a failed journal entry and one
// Failures() entry) while its siblings complete, and a -resume run serves
// the siblings from the journal and recomputes only the failed cell.
func TestRunCellsPanicFailsOnceAndResumeRecomputes(t *testing.T) {
	fp := journal.Fingerprint{Config: "runcells", Version: "test", Seed: 1}
	keys := []string{"a", "b", "c", "d"}
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "run.journal")
		j, err := journal.Create(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		var calls [4]atomic.Int64
		r := &Run{Journal: j, Workers: workers, KeepGoing: true}
		vals, errs, err := RunCells(r, keys, func(_ context.Context, i int) (int, error) {
			calls[i].Add(1)
			if i == 2 {
				panic("cell c exploded")
			}
			return 10 * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: run-level err %v, want nil under KeepGoing", workers, err)
		}
		for i := range keys {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: cell %s ran %d times, want 1", workers, keys[i], n)
			}
		}
		var pe *parallel.PanicError
		if !errors.As(errs[2], &pe) {
			t.Fatalf("workers=%d: cell c error %v, want *PanicError", workers, errs[2])
		}
		for _, i := range []int{0, 1, 3} {
			if errs[i] != nil || vals[i] != 10*i {
				t.Fatalf("workers=%d: cell %s = (%d, %v), want (%d, nil)", workers, keys[i], vals[i], errs[i], 10*i)
			}
		}
		if f := r.Failures(); len(f) != 1 || f[0].Key != "c" {
			t.Fatalf("workers=%d: Failures() = %v, want exactly cell c", workers, f)
		}
		if j.Len() != len(keys) {
			t.Fatalf("workers=%d: journal holds %d keys, want %d (three ok, one failed)", workers, j.Len(), len(keys))
		}
		j.Close()

		j, err = journal.Resume(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		var recomputed []string
		r = &Run{Journal: j, Workers: 1, KeepGoing: true}
		vals, errs, err = RunCells(r, keys, func(_ context.Context, i int) (int, error) {
			recomputed = append(recomputed, keys[i])
			return 10 * i, nil
		})
		j.Close()
		if err != nil || errs[2] != nil || vals[2] != 20 {
			t.Fatalf("workers=%d: resumed cell c = (%d, %v, %v), want (20, nil, nil)", workers, vals[2], errs[2], err)
		}
		if fmt.Sprint(recomputed) != "[c]" {
			t.Fatalf("workers=%d: resume recomputed %v, want only [c]", workers, recomputed)
		}
	}
}

// TestFinishExitCodes pins the epilogue every cmd tool shares: 130 on an
// interrupt (with the -resume hint only when a journal path is set), 3
// with one FAILED line per failed cell in grid order, 1 on any other
// error, 0 on a clean run.
func TestFinishExitCodes(t *testing.T) {
	failed := &Run{KeepGoing: true}
	RunCells(failed, []string{"g/a", "g/b", "g/c", "g/d"}, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("cell %d broke", i)
		}
		return i, nil
	})
	for _, tc := range []struct {
		run     *Run
		journal string
		err     error
		code    int
		out     string
	}{
		{&Run{}, "run.journal", fmt.Errorf("grid: %w", context.Canceled), 130,
			"tool: interrupted; completed cells are saved — re-run with -journal run.journal -resume to continue\n"},
		{&Run{}, "", context.Canceled, 130, "tool: interrupted (hint: -journal FILE makes runs resumable)\n"},
		{failed, "", nil, 3, "tool: 2 cell(s) failed permanently; their entries render as NaN or NA and -resume recomputes them:\n" +
			"  FAILED g/b: cell 1 broke\n  FAILED g/d: cell 3 broke\n"},
		{failed, "run.journal", errors.New("disk full"), 1, "tool: disk full\n"},
		{&Run{}, "run.journal", nil, 0, ""},
	} {
		var w strings.Builder
		if code := tc.run.Finish(&w, "tool", tc.journal, tc.err); code != tc.code || w.String() != tc.out {
			t.Errorf("Finish(journal %q, %v) = %d, %q; want %d, %q", tc.journal, tc.err, code, w.String(), tc.code, tc.out)
		}
	}
}
