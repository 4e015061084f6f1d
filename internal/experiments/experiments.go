// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6), mapped to experiment IDs fig1/fig3..fig10 and
// table1..table3 (see DESIGN.md's experiment index). Each experiment is a
// plain function from a configuration to a typed result; cmd/mpppb-
// experiments renders results as TSV, and bench_test.go runs scaled-down
// versions as Go benchmarks.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"mpppb/internal/fleet"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// Cell-grid metrics: one observation per cell, fed by RunCells — the
// single choke point every experiment driver and every cmd tool's grid
// (mpppb-sim, -sweep, -roc, -trace -replay) funnels through. The names
// keep their experiments prefix so dashboards survive.
var (
	mCellsDeclared = obs.Default().Gauge("mpppb_experiments_cells_total",
		"grid cells declared by the cell-grid runner this run")
	mCellsComputed = obs.Default().Counter("mpppb_experiments_cells_computed_total",
		"cells computed to completion (excludes journal hits)")
	mCellsJournal = obs.Default().Counter("mpppb_experiments_cells_journal_total",
		"cells served from the checkpoint journal instead of recomputed")
	mCellsFailed = obs.Default().Counter("mpppb_experiments_cells_failed_total",
		"cells that failed or panicked and render as NaN")
	mCellSeconds = obs.Default().Histogram("mpppb_experiments_cell_seconds",
		"wall time per computed cell", obs.LatencyBuckets)
	mDegenerateGeoMean = obs.Default().Counter("mpppb_experiments_degenerate_geomean_inputs_total",
		"non-positive values absorbed as NaN by KeepGoing geomean aggregation")
)

// Progress receives human-readable status lines; nil disables reporting.
// The experiment drivers fan work across goroutines (see -j on the cmd
// tools), so the callback must tolerate being invoked from any goroutine;
// the drivers serialize calls through a tracker, so the callback itself
// never runs concurrently with itself and completion counts it sees are
// monotonic.
type Progress func(format string, args ...any)

func (p Progress) log(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// tracker adapts a Progress callback for use from pool workers: calls are
// serialized under a mutex and each carries a completed/total counter that
// increases monotonically regardless of the order workers finish in.
type tracker struct {
	mu    sync.Mutex
	p     Progress
	done  int
	total int
}

// tracker wraps p for total units of concurrent work.
func (p Progress) tracker(total int) *tracker {
	return &tracker{p: p, total: total}
}

// step records one completed unit and logs it with the running count.
func (t *tracker) step(format string, args ...any) {
	if t.p == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.p("%s (%d/%d done)", fmt.Sprintf(format, args...), t.done, t.total)
	t.mu.Unlock()
}

// Run carries the execution policy for one experiment invocation:
// cancellation, checkpointing, pool sizing, failure handling, and
// progress reporting. A nil *Run means "all defaults" — background
// context, no journal, default pool, fail-fast, silent — so existing call
// sites that used to pass a nil Progress keep working unchanged.
type Run struct {
	// Ctx cancels the run: dispatch of new cells stops, in-flight cells
	// finish (and are journaled), and the experiment returns Ctx's error.
	Ctx context.Context
	// Journal checkpoints completed cells; nil disables.
	Journal *journal.Journal
	// Workers overrides the pool width; 0 uses parallel.Default (-j).
	Workers int
	// KeepGoing degrades gracefully: a cell that fails or panics is
	// recorded as a FAILED journal entry and an entry in Failures(), its
	// slots in the result table hold NaN (rendered "NaN" in the TSVs), and
	// the remaining cells still run. Without it the first failure aborts.
	// Geomean aggregation is lenient under KeepGoing too: a degenerate
	// non-positive cell value (an IPC of 0 from a zero-instruction
	// segment) poisons its aggregate to NaN instead of panicking.
	KeepGoing bool
	// Progress receives status lines; nil disables.
	Progress Progress
	// Status, when non-nil, receives the live cell-grid manifest (the
	// /status endpoint of the cmd tools' -listen flag): cells are declared
	// as grids are built and transition pending → running → ok/journal/
	// failed as workers report.
	Status *obs.RunStatus
	// Fleet, when non-nil, makes this process a campaign coordinator:
	// cells are declared on the board and computed by remote workers
	// leasing them over HTTP, never locally. Journal hits still serve
	// immediately, and accepted worker results are merged into Journal by
	// the board, so resume and table emission behave exactly like a local
	// run.
	Fleet *fleet.Board
	// FleetWorker, when non-nil, makes this process a campaign worker: it
	// leases cells from Fleet's coordinator and uploads results instead of
	// journaling locally. Mutually exclusive with Fleet and Journal.
	FleetWorker *fleet.Worker

	mu       sync.Mutex
	failures []CellFailure
}

// CellFailure records one cell that failed or panicked.
type CellFailure struct {
	Key string
	Err error
}

func (r *Run) ctx() context.Context {
	if r == nil || r.Ctx == nil {
		return context.Background()
	}
	return r.Ctx
}

func (r *Run) jrnl() *journal.Journal {
	if r == nil {
		return nil
	}
	return r.Journal
}

func (r *Run) prog() Progress {
	if r == nil {
		return nil
	}
	return r.Progress
}

func (r *Run) status() *obs.RunStatus {
	if r == nil {
		return nil
	}
	return r.Status
}

func (r *Run) keepGoing() bool { return r != nil && r.KeepGoing }

// geoMean aggregates with the strictness the run's failure policy implies.
// Fail-fast runs use stats.GeoMean, whose panic on a non-positive entry
// aborts the experiment — a degenerate cell value must not silently shape
// a table. KeepGoing runs were designed to degrade instead, so they use
// the lenient form: the aggregate renders NaN (exactly like a failed
// cell's slots) and the degenerate inputs are counted and reported.
func (r *Run) geoMean(xs []float64) float64 {
	if !r.keepGoing() {
		return stats.GeoMean(xs)
	}
	gm, bad := stats.GeoMeanLenient(xs)
	if bad > 0 {
		mDegenerateGeoMean.Add(uint64(bad))
		r.prog().log("warning: %d non-positive value(s) in a geomean aggregate; rendering NaN", bad)
	}
	return gm
}

func (r *Run) popts() parallel.RunOpts {
	if r == nil {
		return parallel.RunOpts{}
	}
	return parallel.RunOpts{
		Workers:   r.Workers,
		KeepGoing: r.KeepGoing,
	}
}

func (r *Run) addFailure(key string, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.failures = append(r.failures, CellFailure{Key: key, Err: err})
	r.mu.Unlock()
}

// Failures returns the cells that failed permanently during this Run, in
// the order the grids ran and in grid order within each. Empty on a clean
// run (and always on a nil Run).
func (r *Run) Failures() []CellFailure {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CellFailure(nil), r.failures...)
}

// Finish ends a cmd tool's grid run and returns the process exit code,
// writing the reason to w (stderr): 130 when err is a cancellation, with
// a -resume hint naming journalPath (the -journal flag) when it is set; 1
// for any other err; 3 after one "FAILED key: err" line per failed cell,
// in grid order, followed by the stack of the first cell that panicked;
// 0 on a clean run. A fleet coordinator first lingers
// until live workers have fetched the final grid, so they can render the
// same tables.
func (r *Run) Finish(w io.Writer, tool, journalPath string, err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(w, "%s: interrupted", tool)
		if journalPath != "" {
			fmt.Fprintf(w, "; completed cells are saved — re-run with -journal %s -resume to continue\n", journalPath)
		} else {
			fmt.Fprintln(w, " (hint: -journal FILE makes runs resumable)")
		}
		return 130
	case err != nil:
		fmt.Fprintf(w, "%s: %v\n", tool, err)
		return 1
	}
	if r != nil && r.Fleet != nil {
		r.Fleet.SettleWorkers(r.ctx(), 2*r.Fleet.TTL())
	}
	failures := r.Failures()
	if len(failures) == 0 {
		return 0
	}
	fmt.Fprintf(w, "%s: %d cell(s) failed permanently; their entries render as NaN or NA and -resume recomputes them:\n", tool, len(failures))
	var first *parallel.PanicError
	for _, f := range failures {
		fmt.Fprintf(w, "  FAILED %s: %v\n", f.Key, f.Err)
		if pe := (*parallel.PanicError)(nil); first == nil && errors.As(f.Err, &pe) {
			first = pe
		}
	}
	if first != nil {
		fmt.Fprintf(w, "%s: stack of the first panicking cell:\n%s", tool, first.Stack)
	}
	return 3
}

// RunCells executes one cell grid: for each key, either serve the cell
// from the journal or compute and journal it, fanning across the pool per
// the Run's options (or across the fleet when Fleet or FleetWorker is
// set). It is the single choke point where checkpointing and failure
// accounting meet, so every experiment driver and every cmd tool's grid
// gets identical fault semantics. Cancellation errors are never recorded
// as cell failures — an interrupted cell is simply absent and recomputes
// on resume.
func RunCells[T any](r *Run, keys []string, compute func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	trk := r.prog().tracker(len(keys))
	r.status().AddCells(keys...)
	mCellsDeclared.Add(int64(len(keys)))
	var results []T
	var errs []error
	var err error
	switch {
	case r != nil && r.Fleet != nil:
		results, errs, err = runCellsCoordinator[T](r, keys, trk)
	case r != nil && r.FleetWorker != nil:
		results, errs, err = runCellsWorker(r, keys, compute, trk)
	default:
		results, errs, err = runCellsLocal(r, keys, compute, trk)
	}
	settleFailures(r, keys, errs)
	return results, errs, err
}

// runCellsLocal runs one grid on this process's pool, serving journal
// hits and journaling each computed cell as it finishes.
func runCellsLocal[T any](r *Run, keys []string, compute func(ctx context.Context, i int) (T, error), trk *tracker) ([]T, []error, error) {
	st := r.status()
	j := r.jrnl()
	return parallel.MapErr(r.ctx(), r.popts(), len(keys), func(ctx context.Context, i int) (T, error) {
		var v T
		st.CellRunning(keys[i])
		if ok, lerr := j.Load(keys[i], &v); lerr != nil {
			return v, lerr
		} else if ok {
			st.CellDone(keys[i], obs.CellJournal, 0)
			mCellsJournal.Inc()
			trk.step("%s (from journal)", keys[i])
			return v, nil
		}
		t0 := time.Now()
		v, cerr := compute(ctx, i)
		if cerr != nil {
			// Failures (panics included, which MapErr captures) are
			// settled by RunCells once MapErr returns.
			return v, cerr
		}
		if rerr := j.Record(keys[i], v); rerr != nil {
			return v, rerr
		}
		elapsed := time.Since(t0)
		st.CellDone(keys[i], obs.CellOK, elapsed)
		mCellsComputed.Inc()
		mCellSeconds.Observe(elapsed.Seconds())
		trk.step("%s", keys[i])
		return v, nil
	})
}

// runCellsCoordinator runs one grid in fleet-coordinator mode: declare the
// cells on the board, serve journal hits, and wait for workers to lease
// and complete the rest.
func runCellsCoordinator[T any](r *Run, keys []string, trk *tracker) ([]T, []error, error) {
	raws, errs, err := fleet.Coordinate(r.ctx(), r.Fleet, keys, func(i int, key string, fromJournal bool, cellErr error) {
		switch {
		case cellErr != nil:
		case fromJournal:
			mCellsJournal.Inc()
			trk.step("%s (from journal)", key)
		default:
			mCellsComputed.Inc()
			trk.step("%s (fleet)", key)
		}
	})
	return decodeCells[T](keys, raws, errs), errs, err
}

// runCellsWorker runs one grid in fleet-worker mode: lease cells from the
// coordinator, compute each once locally, upload results, and — once the
// coordinator reports the grid drained — fetch every cell so this process
// can emit the same tables the coordinator does. No local journal is
// written; the coordinator owns it.
func runCellsWorker[T any](r *Run, keys []string, compute func(ctx context.Context, i int) (T, error), trk *tracker) ([]T, []error, error) {
	raws, errs, err := r.FleetWorker.Run(r.ctx(), keys, func(ctx context.Context, i int) (any, error) {
		t0 := time.Now()
		v, cerr := compute(ctx, i)
		if cerr != nil {
			return v, cerr
		}
		elapsed := time.Since(t0)
		mCellsComputed.Inc()
		mCellSeconds.Observe(elapsed.Seconds())
		trk.step("%s", keys[i])
		return v, nil
	})
	if err != nil && len(raws) == 0 {
		return nil, nil, err
	}
	return decodeCells[T](keys, raws, errs), errs, err
}

// decodeCells decodes a fleet grid's raw cell values (the bytes the
// journal holds) into T exactly as a -resume run decodes its journal —
// the same losslessness contract, so fleet tables are byte-identical to
// local ones. A value that does not decode becomes that cell's error.
func decodeCells[T any](keys []string, raws []json.RawMessage, errs []error) []T {
	results := make([]T, len(keys))
	for i, raw := range raws {
		if errs[i] != nil || raw == nil {
			continue
		}
		if uerr := json.Unmarshal(raw, &results[i]); uerr != nil {
			errs[i] = fmt.Errorf("fleet: decode %s: %w", keys[i], uerr)
		}
	}
	return results
}

// settleFailures records permanent cell failures after a grid resolves,
// in grid order: the Run's failure list, the /status manifest, and the
// journal (a fleet worker's jrnl() is nil). Cancellations are not
// failures — those cells recompute on resume.
func settleFailures(r *Run, keys []string, errs []error) {
	j := r.jrnl()
	st := r.status()
	for i, e := range errs {
		if e == nil || errors.Is(e, context.Canceled) {
			continue
		}
		j.RecordFailure(keys[i], e)
		r.addFailure(keys[i], e)
		st.CellDone(keys[i], obs.CellFailed, 0)
		mCellsFailed.Inc()
	}
}

// DefaultSingleThreadPolicies are the realistic policies compared in the
// single-thread evaluation (Figures 6 and 7); LRU and MIN are always run in
// addition.
func DefaultSingleThreadPolicies() []string { return []string{"hawkeye", "perceptron", "mpppb"} }

// DefaultMultiCorePolicies are the policies of the multi-programmed
// evaluation (Figures 4 and 5); LRU is always run in addition.
func DefaultMultiCorePolicies() []string { return []string{"hawkeye", "perceptron", "mpppb-srrip"} }

// mustPolicy resolves a registered policy or panics: experiment policy
// lists are compiled in or validated by the caller.
func mustPolicy(name string) sim.PolicyFactory {
	pf, err := sim.Policy(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return pf
}

// TrainingMixes and TestingMixes split the canonical mix list as in
// Section 5.3: the first 100 mixes train the feature search, the remaining
// 900 are reported.
func TrainingMixes(total []workload.Mix) []workload.Mix {
	n := len(total) / 10
	if n == 0 {
		n = 1
	}
	return total[:n]
}

// TestingMixes returns the reporting portion of the canonical mix list.
func TestingMixes(total []workload.Mix) []workload.Mix {
	n := len(total) / 10
	if n == 0 {
		n = 1
	}
	return total[n:]
}

// TrainingSegments returns n segments spread across the suite (one per
// stride of benchmarks), a diverse training set for the feature search.
func TrainingSegments(n int) []workload.SegmentID {
	all := workload.Segments()
	if n <= 0 || n >= len(all) {
		return all
	}
	stride := len(all) / n
	out := make([]workload.SegmentID, 0, n)
	for i := 0; i < len(all) && len(out) < n; i += stride {
		out = append(out, all[i])
	}
	return out
}
