package sim_test

// Metamorphic property of the warmup/measure split: warmup is only a
// statistics reset, never a state change, so over a fixed record stream
// the miss counts of adjacent windows must add up exactly —
// misses[0,T) == misses[0,b) + misses[b,T) for any boundary b. Records are
// replayed with NonMem zeroed so every record is exactly one instruction
// and the split lands on a record boundary.

import (
	"testing"

	"mpppb/internal/sim"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

func TestWarmupSplitInvariance(t *testing.T) {
	const total = 60_000
	recs := trace.Capture(workload.NewGenerator(workload.Segments()[2], 0), total)
	for i := range recs {
		recs[i].NonMem = 0
	}
	gen := trace.NewColumnarReplay("warmup-split", trace.ColumnsOf(recs))

	for _, name := range []string{"lru", "mpppb"} {
		t.Run(name, func(t *testing.T) {
			pf, err := sim.Policy(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func(warmup, measure uint64) sim.Result {
				cfg := sim.SingleThreadConfig()
				cfg.Warmup, cfg.Measure = warmup, measure
				return sim.RunFastMPKI(cfg, gen, pf)
			}
			whole := run(0, total)
			if whole.LLCMisses == 0 {
				t.Fatal("no LLC misses over the whole stream; property vacuous")
			}
			for _, b := range []uint64{1, total / 3, total / 2, total - 1} {
				head := run(0, b)
				tail := run(b, total-b)
				if head.LLCMisses+tail.LLCMisses != whole.LLCMisses {
					t.Errorf("split at %d: misses %d + %d != %d",
						b, head.LLCMisses, tail.LLCMisses, whole.LLCMisses)
				}
				if head.LLCAccesses+tail.LLCAccesses != whole.LLCAccesses {
					t.Errorf("split at %d: accesses %d + %d != %d",
						b, head.LLCAccesses, tail.LLCAccesses, whole.LLCAccesses)
				}
			}
		})
	}
}
