package main

import (
	"testing"

	"mpppb"
	"mpppb/internal/sim"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// TestReplayCell: the -replay cell matches the library's RunTrace for a
// registered policy and for min (the two-pass Bélády run, which must miss
// less than LRU), counts the wraps of a run longer than the trace, and
// refuses an unknown policy.
func TestReplayCell(t *testing.T) {
	gen := workload.NewGenerator(workload.SegmentID{Bench: "gcc_like", Seg: 2}, workload.CoreBase(0))
	recs := make([]trace.Record, 20_000)
	var instr uint64
	for i := range recs {
		gen.Next(&recs[i])
		instr += recs[i].Instructions()
	}
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 20_000, 2*instr
	cols := trace.ColumnsOf(recs)
	misses := map[string]uint64{}
	for _, p := range []string{"lru", "min"} {
		got, err := replayCell(cfg, "t.mpt", cols, p)
		want, werr := mpppb.RunTrace(cfg, "t.mpt", recs, p)
		if err != nil || werr != nil || got.Res.Deterministic() != want.Deterministic() || got.Wraps < 2 {
			t.Fatalf("%s: replay cell (%+v, %v) vs RunTrace (%+v, %v)", p, got, err, want, werr)
		}
		misses[p] = got.Res.LLCMisses
	}
	if misses["min"] >= misses["lru"] {
		t.Errorf("min misses %d, lru %d: min did not run Bélády", misses["min"], misses["lru"])
	}
	if _, err := replayCell(cfg, "t.mpt", cols, "nonesuch"); err == nil {
		t.Fatal("unknown policy replayed")
	}
}
