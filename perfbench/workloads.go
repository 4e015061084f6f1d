package main

import (
	"fmt"

	"mpppb"
	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
	"mpppb/internal/xrand"
)

// opKind selects the simulator call an op makes.
type opKind uint8

const (
	kindSingle opKind = iota // sim.RunSingle for one (segment, policy)
	kindMIN                  // sim.RunSingleMIN for one segment
	kindMulti                // sim.RunMulti for one (mix, policy)
	kindTrace                // mpppb.RunTrace for one (captured trace, policy)
)

// op is one simulator call. Everything an op needs that users build once
// per campaign (generators, captured traces, policy lookups) is built in
// set-up; the simulated warmup stays inside the op.
type op struct {
	key    string // stable id within the workload, used by the pins
	kind   opKind
	policy string // registered policy name, or "min"
	// group is the rate bucket the op counts toward: the LRU baseline,
	// the multiperspective predictor, or neither.
	group rateGroup
	pf    sim.PolicyFactory
	cfg   sim.Config
	seg   workload.SegmentID // single-thread and trace ops
	gen   trace.Generator    // single-thread ops; shared by a segment's ops
	mix   workload.Mix       // multi ops
	name  string             // trace ops: the replayed trace's name
	recs  []trace.Record     // trace ops: the captured records
}

// outcome is an op's deterministic result.
type outcome struct {
	res   sim.Result // RunSingle, RunTrace, or RunSingleMIN's MIN pass
	lru   sim.Result // RunSingleMIN's LRU pass
	multi sim.MultiResult
}

// render prints the outcome's deterministic fields exactly; two outcomes
// are equal when their renderings are.
func (o outcome) render(k opKind) string {
	switch k {
	case kindMIN:
		return fmt.Sprintf("%+v|%+v", o.lru.Deterministic(), o.res.Deterministic())
	case kindMulti:
		return fmt.Sprintf("%+v", o.multi)
	}
	return fmt.Sprintf("%+v", o.res.Deterministic())
}

// simulated returns the instructions the op simulated (warmup plus the
// measured window; MIN simulates the segment twice) and the LLC accesses
// in its measured window.
func (o outcome) simulated(op *op) (instr, llcAcc uint64) {
	switch op.kind {
	case kindMIN:
		return 2*op.cfg.Warmup + o.lru.Instructions + o.res.Instructions, o.lru.LLCAccesses + o.res.LLCAccesses
	case kindMulti:
		for _, n := range o.multi.Instructions {
			instr += op.cfg.Warmup + n
		}
		return instr, o.multi.LLCAccesses
	}
	return op.cfg.Warmup + o.res.Instructions, o.res.LLCAccesses
}

// run makes the op's simulator call.
func (o *op) run() (outcome, error) {
	var out outcome
	switch o.kind {
	case kindSingle:
		out.res = sim.RunSingle(o.cfg, o.gen, o.pf)
	case kindMIN:
		out.lru, out.res = sim.RunSingleMIN(o.cfg, o.gen)
	case kindMulti:
		out.multi = sim.RunMulti(o.cfg, o.mix, o.pf)
	case kindTrace:
		r, err := mpppb.RunTrace(o.cfg, o.name, o.recs, o.policy)
		if err != nil {
			return out, err
		}
		out.res = r
	}
	return out, nil
}

type rateGroup uint8

const (
	groupNone rateGroup = iota
	groupLRU
	groupMPPPB
)

// groupOf buckets an op by its LLC policy.
func groupOf(policy string) rateGroup {
	switch policy {
	case "lru":
		return groupLRU
	case "mpppb", "mpppb-srrip":
		return groupMPPPB
	}
	return groupNone
}

// workloadDef is one named benchmark workload.
// Why each exists is in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	// nominalPass is one pass's wall time in seconds on the reference
	// machine (see README.md); a run makes round(seconds/nominalPass)
	// passes, at least minPasses, so every run of a workload does the same
	// work.
	nominalPass float64
	build       func(seed uint64) ([]op, error)
	// summarize derives the simulated-model metrics from one pass.
	summarize func(ops []op, outs []outcome) (mpki, speedup float64)
}

const minPasses = 3

// Scaled-down instruction budgets per op.
const (
	stWarmup, stMeasure     = 100_000, 400_000 // single-thread workloads, per op
	mcWarmup, mcMeasure     = 100_000, 400_000 // 4-core mixes, per core
	replayWarm, replayMeas  = 50_000, 200_000  // trace replay under -check
	replayRecords           = 100_000          // captured records per trace, ~1.2x what a replay reads
	singleThreadMPPPBPolicy = "mpppb"
)

// fig6Policies is the fig6 policy set.
var fig6Policies = []string{"lru", "hawkeye", "perceptron", "mpppb", "min"}

// The LLC-bound benchmarks (60-320 LLC accesses per kilo-instruction)
// and the cache-resident ones (under 8). Every segment of each is run.
var (
	llcHeavyBenches      = []string{"omnetpp_like", "mcf_like", "lbm_like", "bzip2_like"}
	cacheResidentBenches = []string{"povray_like", "namd_like", "gamess_like"}
	// mc4Segments are the segments the 4-core mixes are drawn from; the
	// seed only groups them, so every seed simulates the same load. Mixes
	// drawn at random from the whole suite differ too much in MPKI and
	// footprint for a few of them to stand for any seed.
	mc4Segments = []workload.SegmentID{
		{Bench: "mcf_like", Seg: 0}, {Bench: "lbm_like", Seg: 1}, {Bench: "bzip2_like", Seg: 2},
		{Bench: "omnetpp_like", Seg: 0}, {Bench: "libquantum_like", Seg: 1}, {Bench: "soplex_like", Seg: 2},
		{Bench: "mlpack_cf_like", Seg: 0}, {Bench: "xalancbmk_like", Seg: 1}, {Bench: "sphinx3_like", Seg: 2},
		{Bench: "gcc_like", Seg: 0}, {Bench: "povray_like", Seg: 1}, {Bench: "namd_like", Seg: 2},
	}
	// replayBenches have stores in their streams, so the captured traces
	// exercise dirty evictions and writebacks under the checker.
	replayBenches = []string{"lbm_like", "gcc_like", "soplex_like"}
)

var workloads = []workloadDef{
	{
		name:        "fig6-llc-heavy",
		nominalPass: 4.5,
		build:       func(seed uint64) ([]op, error) { return fig6Ops(llcHeavyBenches, seed) },
		summarize:   benchSummary,
	},
	{
		name:        "fig6-cache-resident",
		nominalPass: 2.4,
		build:       func(seed uint64) ([]op, error) { return fig6Ops(cacheResidentBenches, seed) },
		summarize:   benchSummary,
	},
	{
		name:        "mc4-shared-llc",
		nominalPass: 3.5,
		build:       mc4Ops,
		summarize:   mixSummary,
	},
	{
		name:        "replay-check",
		nominalPass: 1.0,
		build:       replayOps,
		summarize:   benchSummary,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func policyOf(name string) (sim.PolicyFactory, error) {
	if name == "min" {
		return nil, nil
	}
	return sim.Policy(name)
}

// fig6Ops is every segment of benches under the fig6 policy set, the
// policies interleaved per segment so LRU and MPPPB see the same host
// conditions. The seed salts the generators.
func fig6Ops(benches []string, seed uint64) ([]op, error) {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = stWarmup, stMeasure
	var ops []op
	for _, b := range benches {
		for s := 0; s < workload.SegmentsPerBenchmark; s++ {
			id := workload.SegmentID{Bench: b, Seg: s}
			gen := workload.NewSeededGenerator(id, workload.CoreBase(0), seed)
			for _, p := range fig6Policies {
				pf, err := policyOf(p)
				if err != nil {
					return nil, err
				}
				kind := kindSingle
				if p == "min" {
					kind = kindMIN
				}
				ops = append(ops, op{key: id.String() + "/" + p, kind: kind, policy: p, group: groupOf(p), pf: pf, cfg: cfg, seg: id, gen: gen})
			}
		}
	}
	return ops, nil
}

// mc4Mixes draws the 4-core mixes for a seed: the seed shuffles
// mc4Segments and groups them four to a mix. None may be a feature-search
// training mix.
func mc4Mixes(seed uint64) ([]workload.Mix, error) {
	perm := xrand.New(seed).Perm(len(mc4Segments))
	mixes := make([]workload.Mix, len(mc4Segments)/4)
	for i, p := range perm {
		mixes[i/4][i%4] = mc4Segments[p]
	}
	training := map[workload.Mix]bool{}
	for _, m := range experiments.TrainingMixes(workload.Mixes(1000, workload.DefaultMixSeed)) {
		training[m] = true
	}
	for _, m := range mixes {
		if training[m] {
			return nil, fmt.Errorf("mix %s is a feature-search training mix", m)
		}
	}
	return mixes, nil
}

// mc4Ops is, per mix, the standalone LRU runs of its four segments that
// weighted speedup needs (each segment once per pass, as
// sim.SingleIPCCache would run it), then the mix under lru and
// mpppb-srrip.
func mc4Ops(seed uint64) ([]op, error) {
	mixes, err := mc4Mixes(seed)
	if err != nil {
		return nil, err
	}
	cfg := sim.MultiCoreConfig()
	cfg.Warmup, cfg.Measure = mcWarmup, mcMeasure
	lru, err := sim.Policy("lru")
	if err != nil {
		return nil, err
	}
	var ops []op
	for _, mix := range mixes {
		for _, id := range mix {
			gen := workload.NewGenerator(id, workload.CoreBase(0))
			// The standalone runs count toward no rate bucket: the LRU rate
			// compares mixes with mixes.
			ops = append(ops, op{key: "single/" + id.String(), kind: kindSingle, policy: "lru", pf: lru, cfg: cfg, seg: id, gen: gen})
		}
		for _, p := range []string{"lru", "mpppb-srrip"} {
			pf, err := sim.Policy(p)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{key: mix.String() + "/" + p, kind: kindMulti, policy: p, group: groupOf(p), pf: pf, cfg: cfg, mix: mix})
		}
	}
	return ops, nil
}

// replayOps captures one trace per replay segment with trace.Capture and
// replays it through mpppb.RunTrace under lru and mpppb with the checker
// on. The seed salts the captured generators and picks the segments.
func replayOps(seed uint64) ([]op, error) {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = replayWarm, replayMeas
	cfg.Check = true
	var ops []op
	for i, b := range replayBenches {
		id := workload.SegmentID{Bench: b, Seg: int((seed + uint64(i)) % workload.SegmentsPerBenchmark)}
		recs := trace.Capture(workload.NewSeededGenerator(id, workload.CoreBase(0), seed), replayRecords)
		for _, p := range []string{"lru", singleThreadMPPPBPolicy} {
			pf, err := sim.Policy(p)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{key: id.String() + "/" + p, kind: kindTrace, policy: p, group: groupOf(p), pf: pf, cfg: cfg, seg: id, name: id.String(), recs: recs})
		}
	}
	return ops, nil
}

// benchSummary aggregates single-thread outcomes the way
// experiments.SingleThread does: each benchmark's IPC and MPKI are the
// segment-weighted means of its segments, speedup is the geomean over
// benchmarks of MPPPB's IPC over LRU's, and MPKI is the mean over
// benchmarks of MPPPB's.
func benchSummary(ops []op, outs []outcome) (mpki, speedup float64) {
	type agg struct{ ipc, mpki, w []float64 }
	per := map[string]map[string]*agg{} // policy -> bench -> segments
	weights := workload.SegmentWeights()
	var benches []string
	for i := range ops {
		o := &ops[i]
		if o.policy != "lru" && o.policy != singleThreadMPPPBPolicy {
			continue
		}
		if per[o.policy] == nil {
			per[o.policy] = map[string]*agg{}
		}
		a := per[o.policy][o.seg.Bench]
		if a == nil {
			a = &agg{}
			per[o.policy][o.seg.Bench] = a
			if o.policy == "lru" {
				benches = append(benches, o.seg.Bench)
			}
		}
		a.ipc = append(a.ipc, outs[i].res.IPC)
		a.mpki = append(a.mpki, outs[i].res.MPKI)
		a.w = append(a.w, weights[o.seg.Seg])
	}
	var sp, mp []float64
	for _, b := range benches {
		l, m := per["lru"][b], per[singleThreadMPPPBPolicy][b]
		sp = append(sp, stats.WeightedMean(m.ipc, m.w)/stats.WeightedMean(l.ipc, l.w))
		mp = append(mp, stats.WeightedMean(m.mpki, m.w))
	}
	return stats.Mean(mp), stats.GeoMean(sp)
}

// mixSummary aggregates 4-core outcomes the way experiments.MultiCore
// does: speedup is the geomean over mixes of MPPPB-SRRIP's weighted
// speedup normalized to LRU's, and MPKI the mean over mixes.
func mixSummary(ops []op, outs []outcome) (mpki, speedup float64) {
	single := map[workload.SegmentID]float64{}
	lru := map[workload.Mix]sim.MultiResult{}
	var ws, mp []float64
	for i := range ops {
		o := &ops[i]
		switch {
		case o.kind == kindSingle:
			single[o.seg] = outs[i].res.IPC
		case o.policy == "lru":
			lru[o.mix] = outs[i].multi
		default:
			var ipcs [4]float64
			for j, id := range o.mix {
				ipcs[j] = single[id]
			}
			r := outs[i].multi
			ws = append(ws, r.WeightedSpeedup(ipcs)/lru[o.mix].WeightedSpeedup(ipcs))
			mp = append(mp, r.MPKI)
		}
	}
	return stats.Mean(mp), stats.GeoMean(ws)
}
