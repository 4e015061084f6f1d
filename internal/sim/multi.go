package sim

import (
	"mpppb/internal/cache"
	"mpppb/internal/cpu"
	"mpppb/internal/parallel"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// lruFactory is assigned in registry.go; declared here so sim.go can use
// it without an import cycle on the policy package.
var lruFactory PolicyFactory

// MultiResult summarizes one 4-core multi-programmed run.
type MultiResult struct {
	Mix workload.Mix
	// IPC is each core's measured instructions per cycle.
	IPC [4]float64
	// Instructions and Cycles are per-core measured totals.
	Instructions [4]uint64
	Cycles       [4]uint64
	// LLCMisses are shared-LLC misses (demand + prefetch) over the
	// measurement window.
	LLCMisses   uint64
	LLCAccesses uint64
	// MPKI is shared-LLC misses per 1000 instructions (all cores).
	MPKI float64
}

// WeightedSpeedup combines a run with per-segment standalone IPCs (each
// segment alone with the full LLC under LRU) into the paper's normalized
// weighted-speedup numerator (Section 4.5). Divide by the LRU run's value
// to normalize.
func (r MultiResult) WeightedSpeedup(singleIPC [4]float64) float64 {
	return stats.WeightedSpeedup(r.IPC[:], singleIPC[:])
}

// RunMulti simulates a 4-segment mix sharing the LLC. Scheduling follows
// the sample-balanced idea of FIESTA: the core with the smallest elapsed
// cycle count issues next, so all cores stay active and aligned in time;
// warmup runs until the configured instruction total across cores, then
// measurement runs until every core has executed cfg.Measure instructions
// (restarting its region as needed, which the infinite generators model
// implicitly).
func RunMulti(cfg Config, mix workload.Mix, pf PolicyFactory) MultiResult {
	llc := NewLLC(cfg, pf)

	var rds [4]*batchReader
	var hs [4]*cache.Hierarchy
	var cores [4]*cpu.Core
	for i := 0; i < 4; i++ {
		rds[i] = newBatchReader(workload.NewGenerator(mix[i], workload.CoreBase(i)))
		hs[i] = buildHierarchy(cfg, i, llc)
		cores[i] = cpu.New(cfg.CPU)
	}
	checks := attachChecks(cfg, llc, hs[:]...)

	// Each core reads its own generator through its own batch cursor, so
	// the per-core record streams — and pickNext's interleaving of them —
	// are identical to the per-record path.
	step := func(i int) uint64 {
		rec := rds[i].next()
		if rec.NonMem > 0 {
			cores[i].NonMem(int(rec.NonMem))
		}
		lat := hs[i].Demand(rec.PC, rec.Addr, rec.IsWrite, cores[i].Now())
		cores[i].Mem(lat)
		return rec.Instructions()
	}

	// pickNext returns the core with the smallest absolute clock.
	pickNext := func() int {
		best := 0
		bc := cores[0].Now()
		for i := 1; i < 4; i++ {
			if c := cores[i].Now(); c < bc {
				best, bc = i, c
			}
		}
		return best
	}

	// Warmup: run until every core has executed cfg.Warmup instructions,
	// so each core's measurement window starts at the same program phase
	// as its standalone reference run.
	warmed := func() bool {
		for i := 0; i < 4; i++ {
			if cores[i].Instructions() < cfg.Warmup {
				return false
			}
		}
		return true
	}
	endWarmup := startPhase(mWarmupPhases)
	for !warmed() {
		step(pickNext())
	}
	endWarmup()
	for i := 0; i < 4; i++ {
		cores[i].ResetStats()
		hs[i].ResetStats()
	}
	llc.ResetStats()
	endMeasure := startPhase(mMeasurePhases)

	// Measure until every core has executed cfg.Measure instructions. All
	// cores keep running so contention persists for the laggards, but each
	// core's statistics are snapshotted the moment it completes its quota,
	// keeping measurement windows comparable to the standalone reference
	// runs used for weighted speedup.
	res := MultiResult{Mix: mix}
	var snapped [4]bool
	snap := func(i int) {
		res.IPC[i] = cores[i].IPC()
		res.Instructions[i] = cores[i].Instructions()
		res.Cycles[i] = cores[i].Cycles()
		snapped[i] = true
	}
	for {
		done := true
		for i := 0; i < 4; i++ {
			if !snapped[i] {
				if cores[i].Instructions() >= cfg.Measure {
					snap(i)
				} else {
					done = false
				}
			}
		}
		if done {
			break
		}
		step(pickNext())
	}

	endMeasure()
	var totalInstr uint64
	for i := 0; i < 4; i++ {
		totalInstr += res.Instructions[i]
	}
	res.LLCMisses = llc.Stats.DemandMisses + llc.Stats.PrefetchMisses
	res.LLCAccesses = llc.Stats.DemandAccesses + llc.Stats.PrefetchAccesses
	mMeasuredAccesses.Add(res.LLCAccesses)
	res.MPKI = stats.MPKI(llc.Stats.DemandMisses+llc.Stats.PrefetchMisses, totalInstr)
	finishChecks(checks)
	return res
}

// SingleIPCCache memoizes standalone IPCs per segment. It is safe for
// concurrent use: mixes fanned across workers share one cache, and
// single-flight semantics guarantee each segment's baseline run executes
// exactly once even when several mixes need it simultaneously (concurrent
// requesters block until the one computation finishes).
type SingleIPCCache struct {
	cfg Config
	m   parallel.Memo[workload.SegmentID, float64]
}

// NewSingleIPCCache creates a cache computing standalone IPCs with cfg.
func NewSingleIPCCache(cfg Config) *SingleIPCCache {
	return &SingleIPCCache{cfg: cfg}
}

// For returns the standalone IPCs for a mix, computing missing segments.
func (c *SingleIPCCache) For(mix workload.Mix) [4]float64 {
	var out [4]float64
	for i, id := range mix {
		out[i] = c.ipc(id)
	}
	return out
}

// ipc returns one segment's standalone IPC, computing it at most once.
func (c *SingleIPCCache) ipc(id workload.SegmentID) float64 {
	return c.m.Do(id, func() float64 {
		gen := workload.NewGenerator(id, workload.CoreBase(0))
		return RunSingle(c.cfg, gen, lruFactory).IPC
	})
}
