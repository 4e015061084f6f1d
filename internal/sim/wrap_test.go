package sim

import (
	"testing"

	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// Wrap-boundary audit: the sim drivers read every record through one
// phase-persistent batchReader cursor, and a replayed trace wraps back to
// record 0 whenever the cursor reaches its end. Three delivery paths feed
// that cursor — per-record Next (always fills full batches), row-major
// NextBatch (short-fills at the wrap), and columnar NextColumns (also
// short-fills) — and a run must be bit-identical across them even when a
// batch refill straddles the wrap, and even when the warmup→measure phase
// boundary lands a few records before a wrap so the first measured batch
// is the straddling one.

// nextOnlyGen hides a generator's batch methods, forcing the sim's
// per-record fallback path.
type nextOnlyGen struct{ g trace.Generator }

func (n nextOnlyGen) Name() string         { return n.g.Name() }
func (n nextOnlyGen) Next(r *trace.Record) { n.g.Next(r) }
func (n nextOnlyGen) Reset()               { n.g.Reset() }

// rowOnlyGen hides a columnar replay's NextColumns, forcing the sim's
// row-major NextBatch path.
type rowOnlyGen struct{ g *trace.ColumnarReplay }

func (r rowOnlyGen) Name() string                      { return r.g.Name() }
func (r rowOnlyGen) Next(rec *trace.Record)            { r.g.Next(rec) }
func (r rowOnlyGen) NextBatch(recs []trace.Record) int { return r.g.NextBatch(recs) }
func (r rowOnlyGen) Reset()                            { r.g.Reset() }

// wrapRecords builds a deterministic trace with cache-relevant structure
// (a hot set, a streaming region, noise) whose length is deliberately
// prime so batch refills and wraps never align.
func wrapRecords(n int, nonMem bool) []trace.Record {
	rng := xrand.New(0xABCDEF)
	recs := make([]trace.Record, n)
	for i := range recs {
		r := rng.Uint64()
		rec := &recs[i]
		switch r % 3 {
		case 0:
			rec.Addr = 0x10000 + (r>>8)%128*64
			rec.PC = 0x400100 + (r>>20)%8*4
		case 1:
			rec.Addr = 0x800000 + uint64(i)*64
			rec.PC = 0x400200
		default:
			rec.Addr = (r >> 4) & 0x3ffffc0
			rec.PC = 0x400300 + (r>>24)%16*4
		}
		rec.IsWrite = r%11 == 0
		if nonMem {
			rec.NonMem = uint16(r % 7)
		}
	}
	return recs
}

func TestWrapStraddlingDeliveryPathsIdentical(t *testing.T) {
	// 997 is prime: wraps never align with the 256-record batch size, so
	// every pass ends with a short fill mid-batch.
	const traceLen = 997

	cases := []struct {
		name            string
		nonMem          bool
		warmup, measure uint64
	}{
		// NonMem=0 → one instruction per record: warmup 995 parks the
		// phase boundary exactly 2 records before the first wrap, so the
		// first measured refill straddles it.
		{"boundary-2-records-before-wrap", false, traceLen - 2, 3 * traceLen},
		// Boundary exactly ON the wrap: the measure phase starts at
		// record 0 of pass 2.
		{"boundary-on-wrap", false, traceLen, 2*traceLen + 37},
		// Variable instructions per record: the boundary lands wherever
		// the NonMem weights put it, and wraps shift pass to pass.
		{"variable-instruction-records", true, 2970, 9000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := wrapRecords(traceLen, tc.nonMem)
			cols := trace.ColumnsOf(recs)
			cfg := SingleThreadConfig()
			cfg.Warmup, cfg.Measure = tc.warmup, tc.measure

			pf, err := Policy("mpppb")
			if err != nil {
				t.Fatal(err)
			}

			// Path 1: per-record Next only (full batches, wrap inside Next).
			perRecord := RunSingle(cfg, nextOnlyGen{trace.NewColumnarReplay("wrap", cols)}, pf).Deterministic()
			// Path 2: row-major NextBatch (short fill at the wrap).
			rowGen := rowOnlyGen{trace.NewColumnarReplay("wrap", cols)}
			rowMajor := RunSingle(cfg, rowGen, pf).Deterministic()
			// Path 3: columnar NextColumns (short fill at the wrap).
			colGen := trace.NewColumnarReplay("wrap", cols)
			columnar := RunSingle(cfg, colGen, pf).Deterministic()

			if perRecord != rowMajor {
				t.Errorf("per-record vs row-major:\n%+v\n%+v", perRecord, rowMajor)
			}
			if perRecord != columnar {
				t.Errorf("per-record vs columnar:\n%+v\n%+v", perRecord, columnar)
			}
			// The scenario must actually exercise wraps, or the test
			// proves nothing.
			if rowGen.g.Wraps < 2 || colGen.Wraps < 2 {
				t.Fatalf("trace wrapped %d/%d times; the run is too short to straddle wraps",
					rowGen.g.Wraps, colGen.Wraps)
			}

			// The untimed driver shares the cursor logic; pin it too.
			fastRow := RunFastMPKI(cfg, rowOnlyGen{trace.NewColumnarReplay("wrap", cols)}, pf).Deterministic()
			fastCol := RunFastMPKI(cfg, trace.NewColumnarReplay("wrap", cols), pf).Deterministic()
			fastNext := RunFastMPKI(cfg, nextOnlyGen{trace.NewColumnarReplay("wrap", cols)}, pf).Deterministic()
			if fastRow != fastCol || fastRow != fastNext {
				t.Errorf("RunFastMPKI paths differ:\nrow %+v\ncol %+v\nnext %+v", fastRow, fastCol, fastNext)
			}
		})
	}
}

// TestColumnarReplaySharedColumnsIndependentCursors: multiple cursors may
// share one read-only *Columns; advancing or Resetting one must never
// disturb another, and Reset must restore a cursor that has wrapped to a
// bit-identical replay.
func TestColumnarReplaySharedColumnsIndependentCursors(t *testing.T) {
	recs := wrapRecords(101, true)
	cols := trace.ColumnsOf(recs)
	a := trace.NewColumnarReplay("a", cols)
	b := trace.NewColumnarReplay("b", cols)

	// Advance a past a wrap via mixed batch sizes.
	buf := trace.Columns{
		PCs: make([]uint64, 64), Addrs: make([]uint64, 64),
		Writes: make([]bool, 64), NonMem: make([]uint16, 64),
	}
	consumed := 0
	for consumed < 150 {
		consumed += a.NextColumns(&buf, 64)
	}
	if a.Wraps == 0 {
		t.Fatal("cursor a did not wrap")
	}

	// b, untouched, still delivers the pristine stream from record 0.
	var rec trace.Record
	for i := 0; i < len(recs); i++ {
		b.Next(&rec)
		if rec != recs[i] {
			t.Fatalf("cursor b record %d: %+v, want %+v (disturbed by cursor a?)", i, rec, recs[i])
		}
	}

	// Reset a: full replay must be bit-identical to the source records,
	// and the wrap counter must restart.
	a.Reset()
	if a.Wraps != 0 {
		t.Fatalf("Wraps = %d after Reset, want 0", a.Wraps)
	}
	got := make([]trace.Record, len(recs))
	for i := 0; i < len(got); {
		n := a.NextBatch(got[i:])
		i += n
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("post-Reset record %d: %+v, want %+v", i, got[i], recs[i])
		}
	}

	// The shared columns themselves are untouched by all of the above.
	back := cols.Records()
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("shared Columns mutated at %d: %+v != %+v", i, back[i], recs[i])
		}
	}
}
