package workload

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"mpppb/internal/trace"
)

// External-trace benchmark family: "trace:<path>" names a binary trace
// file (produced by mpppb-trace -capture or -ingest) as a benchmark, so
// ingested real-program traces run through every driver — grid, journal,
// -check, fleet, serve clients — exactly like a synthetic benchmark. The
// three segments are phase slices of the file: segment 1 replays the
// first half, segment 2 the second half, and segment 0 the whole trace,
// mirroring the core suite's phase structure without inventing records.

// tracePrefix marks external-trace benchmark names.
const tracePrefix = "trace:"

// traceCache memoizes loaded trace files in column-major form, so a grid
// run that schedules all segments of one trace decodes the file once and
// every segment's replay cursor shares the same read-only columns.
var traceCache sync.Map // path -> traceEntry

type traceEntry struct {
	cols *trace.Columns
	err  error
}

func loadTrace(path string) (*trace.Columns, error) {
	if e, ok := traceCache.Load(path); ok {
		ent := e.(traceEntry)
		return ent.cols, ent.err
	}
	var ent traceEntry
	f, err := os.Open(path)
	if err != nil {
		ent.err = err
	} else {
		var recs []trace.Record
		recs, ent.err = trace.ReadAll(f)
		f.Close()
		if ent.err == nil && len(recs) == 0 {
			ent.err = fmt.Errorf("workload: trace %s is empty", path)
		}
		ent.cols = trace.ColumnsOf(recs)
	}
	e, _ := traceCache.LoadOrStore(path, ent)
	ent = e.(traceEntry)
	return ent.cols, ent.err
}

func init() {
	registerResolver(func(name string) (FamilyBenchmark, bool) {
		if !strings.HasPrefix(name, tracePrefix) {
			return FamilyBenchmark{}, false
		}
		path := name[len(tracePrefix):]
		if _, err := loadTrace(path); err != nil {
			// An unreadable path is not a benchmark; drivers report it as
			// the usual unknown-benchmark error.
			return FamilyBenchmark{}, false
		}
		return FamilyBenchmark{
			Name:  name,
			Class: "external-trace",
			Make: func(seg int, base uint64) trace.Generator {
				cols, err := loadTrace(path)
				if err != nil {
					panic(fmt.Sprintf("workload: loading %s: %v", path, err))
				}
				return newTraceSegment(segName(name, seg), cols, seg, base)
			},
		}, true
	})
}

// traceAddrBits is how much of a trace record's address survives
// rebasing; the rest is replaced by the driver-assigned core base, so
// multi-programmed traces stay in disjoint regions like synthetic
// benchmarks do.
const traceAddrBits = 40

// traceSegment replays a slice of a trace file, rebased into the driver's
// address region. It wraps like any replay generator.
type traceSegment struct {
	inner *trace.ColumnarReplay
	base  uint64
}

// newTraceSegment slices the phase for seg (0 = full, 1 = first half,
// 2 = second half) out of the shared columns and wraps it in a rebasing
// replayer.
func newTraceSegment(name string, cols *trace.Columns, seg int, base uint64) *traceSegment {
	lo, hi := 0, cols.Len()
	half := hi / 2
	switch {
	case seg == 1 && half > 0:
		hi = half
	case seg == 2 && half > 0:
		lo = half
	}
	phase := &trace.Columns{
		PCs:    cols.PCs[lo:hi],
		Addrs:  cols.Addrs[lo:hi],
		Writes: cols.Writes[lo:hi],
		NonMem: cols.NonMem[lo:hi],
	}
	return &traceSegment{inner: trace.NewColumnarReplay(name, phase), base: base}
}

func (g *traceSegment) rebase(r *trace.Record) {
	r.Addr = g.base | (r.Addr & (1<<traceAddrBits - 1))
}

// Name implements trace.Generator.
func (g *traceSegment) Name() string { return g.inner.Name() }

// Next implements trace.Generator.
func (g *traceSegment) Next(rec *trace.Record) {
	g.inner.Next(rec)
	g.rebase(rec)
}

// NextBatch implements trace.BatchGenerator; rebasing touches only the
// caller's buffer, never the shared decoded columns.
func (g *traceSegment) NextBatch(recs []trace.Record) int {
	n := g.inner.NextBatch(recs)
	for i := 0; i < n; i++ {
		g.rebase(&recs[i])
	}
	return n
}

// Reset implements trace.Generator.
func (g *traceSegment) Reset() { g.inner.Reset() }

var _ trace.BatchGenerator = (*traceSegment)(nil)
