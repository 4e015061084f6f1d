package mpppb

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index). Each benchmark
// runs a scaled-down version of the corresponding experiment and reports
// the paper's headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. cmd/mpppb-experiments
// runs the same experiments at larger scale with TSV output.

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// benchST returns the single-thread machine scaled for benchmarking.
func benchST() sim.Config {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup = 200_000
	cfg.Measure = 800_000
	return cfg
}

func benchMC() sim.Config {
	cfg := sim.MultiCoreConfig()
	cfg.Warmup = 150_000
	cfg.Measure = 500_000
	return cfg
}

// benchBenches is a representative cross-section of the suite used by the
// per-benchmark figures to keep bench runtime in seconds.
var benchBenches = []string{
	"libquantum_like", "sphinx3_like", "gcc_like", "lbm_like",
	"omnetpp_like", "h264ref_like", "data_caching_like", "povray_like",
}

func benchMixes(n int) []workload.Mix {
	return experiments.TestingMixes(workload.Mixes(n*10, workload.DefaultMixSeed))[:n]
}

// BenchmarkFig6SingleThreadSpeedup reproduces Figure 6: single-thread
// speedup over LRU for Hawkeye, Perceptron, MPPPB, and MIN.
func BenchmarkFig6SingleThreadSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.SingleThread(benchST(), experiments.DefaultSingleThreadPolicies(), benchBenches, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.GeomeanSpeedup["hawkeye"], "hawkeye-geomean")
		b.ReportMetric(t.GeomeanSpeedup["perceptron"], "perceptron-geomean")
		b.ReportMetric(t.GeomeanSpeedup["mpppb"], "mpppb-geomean")
		b.ReportMetric(t.GeomeanSpeedup["min"], "min-geomean")
	}
}

// BenchmarkFig7SingleThreadMPKI reproduces Figure 7: single-thread MPKI.
func BenchmarkFig7SingleThreadMPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.SingleThread(benchST(), experiments.DefaultSingleThreadPolicies(), benchBenches, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.MeanMPKI["lru"], "lru-mpki")
		b.ReportMetric(t.MeanMPKI["perceptron"], "perceptron-mpki")
		b.ReportMetric(t.MeanMPKI["mpppb"], "mpppb-mpki")
		b.ReportMetric(t.MeanMPKI["min"], "min-mpki")
	}
}

// BenchmarkFig4MultiCoreSpeedup reproduces Figure 4: normalized weighted
// speedup over LRU on 4-core multi-programmed workloads.
func BenchmarkFig4MultiCoreSpeedup(b *testing.B) {
	mixes := benchMixes(6)
	for i := 0; i < b.N; i++ {
		t, err := experiments.MultiCore(benchMC(), experiments.DefaultMultiCorePolicies(), mixes, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.GeomeanSpeedup["hawkeye"], "hawkeye-ws")
		b.ReportMetric(t.GeomeanSpeedup["perceptron"], "perceptron-ws")
		b.ReportMetric(t.GeomeanSpeedup["mpppb-srrip"], "mpppb-ws")
	}
}

// BenchmarkFig5MultiCoreMPKI reproduces Figure 5: shared-LLC MPKI on
// 4-core workloads.
func BenchmarkFig5MultiCoreMPKI(b *testing.B) {
	mixes := benchMixes(6)
	for i := 0; i < b.N; i++ {
		t, err := experiments.MultiCore(benchMC(), experiments.DefaultMultiCorePolicies(), mixes, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.MeanMPKI["lru"], "lru-mpki")
		b.ReportMetric(t.MeanMPKI["perceptron"], "perceptron-mpki")
		b.ReportMetric(t.MeanMPKI["mpppb-srrip"], "mpppb-mpki")
	}
}

// BenchmarkFig8ROC reproduces Figures 1 and 8: predictor accuracy curves.
// The reported metric is each predictor's true-positive rate at the 30%
// false-positive rate inside the paper's bypass-relevant band.
func BenchmarkFig8ROC(b *testing.B) {
	segs := []workload.SegmentID{
		{Bench: "gcc_like", Seg: 0}, {Bench: "sphinx3_like", Seg: 0},
		{Bench: "data_caching_like", Seg: 0}, {Bench: "omnetpp_like", Seg: 0},
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.ROCCurves(benchST(), nil, segs, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.TPRAt30["sdbp"], "sdbp-tpr@30")
		b.ReportMetric(t.TPRAt30["perceptron"], "perceptron-tpr@30")
		b.ReportMetric(t.TPRAt30["mpppb"], "mpppb-tpr@30")
		b.ReportMetric(t.AUC["mpppb"], "mpppb-auc")
	}
}

// BenchmarkFig3FeatureSearch reproduces Figure 3: random feature sets
// against LRU/MIN/hill-climbed references.
func BenchmarkFig3FeatureSearch(b *testing.B) {
	cfg := benchST()
	cfg.Warmup = 100_000
	cfg.Measure = 400_000
	training := experiments.TrainingSegments(4)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3FeatureSearch(cfg, training, 6, 6, 2017, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LRUMPKI, "lru-mpki")
		b.ReportMetric(res.BestRandom.MPKI, "best-random-mpki")
		b.ReportMetric(res.HillClimbed.MPKI, "climbed-mpki")
		b.ReportMetric(res.MINMPKI, "min-mpki")
	}
}

// BenchmarkFig9UniformAssociativity reproduces Figure 9: uniform vs
// per-feature associativity. To keep runtime bounded it sweeps A in
// {1, 6, 18} rather than 1..18; cmd/mpppb-experiments runs the full sweep.
func BenchmarkFig9UniformAssociativity(b *testing.B) {
	mixes := benchMixes(2)
	cfg := benchMC()
	for i := 0; i < b.N; i++ {
		singles := sim.NewSingleIPCCache(cfg)
		metric := func(name string, params core.Params) {
			t := experiments.MultiCoreWith(cfg, params, mixes, singles)
			b.ReportMetric(t, name)
		}
		metric("variable-A-ws", core.MultiCoreParams())
		for _, a := range []int{1, 6, 18} {
			p := core.MultiCoreParams()
			feats := make([]core.Feature, len(p.Features))
			copy(feats, p.Features)
			for j := range feats {
				feats[j].A = a
			}
			p.Features = feats
			metric("uniform-A"+string(rune('0'+a/10))+string(rune('0'+a%10))+"-ws", p)
		}
	}
}

// BenchmarkFig10FeatureAblation reproduces Figure 10: leave-one-feature-
// out over Table 1(a). To bound runtime it ablates three named features
// the paper highlights (the most valuable offset feature, a pc feature,
// and the harmful insert(17,1)).
func BenchmarkFig10FeatureAblation(b *testing.B) {
	mixes := benchMixes(2)
	cfg := benchMC()
	features := core.SingleThreadSetA()
	highlight := map[string]bool{"offset(15,1,6,1)": true, "pc(17,6,20,0,1)": true, "insert(17,1)": true}
	for i := 0; i < b.N; i++ {
		singles := sim.NewSingleIPCCache(cfg)
		params := core.MultiCoreParams()
		params.Features = features
		b.ReportMetric(experiments.MultiCoreWith(cfg, params, mixes, singles), "original-ws")
		reported := map[string]bool{}
		for j, f := range features {
			name := f.String()
			if !highlight[name] || reported[name] {
				continue
			}
			reported[name] = true
			sub := make([]core.Feature, 0, len(features)-1)
			sub = append(sub, features[:j]...)
			sub = append(sub, features[j+1:]...)
			p := params
			p.Features = sub
			b.ReportMetric(experiments.MultiCoreWith(cfg, p, mixes, singles), "omit-"+name+"-ws")
		}
	}
}

// BenchmarkTable1FeatureSets measures raw predictor throughput with each
// of the paper's feature sets: accesses predicted and trained per second
// through the full MPPPB policy on a fixed workload.
func BenchmarkTable1FeatureSets(b *testing.B) {
	for _, set := range []struct {
		name   string
		params core.Params
	}{
		{"set1a", func() core.Params { p := core.SingleThreadParams(); p.Features = core.SingleThreadSetA(); return p }()},
		{"set1b", core.SingleThreadParams()},
		{"table2", func() core.Params { p := core.SingleThreadParams(); p.Features = core.MultiProgrammedSet(); return p }()},
	} {
		b.Run(set.name, func(b *testing.B) {
			cfg := benchST()
			cfg.Warmup = 100_000
			cfg.Measure = 300_000
			gen := workload.NewGenerator(workload.SegmentID{Bench: "gcc_like", Seg: 0}, 0)
			params := set.params
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sim.RunFastMPKI(cfg, gen, func(sets, ways int) cacheReplacementPolicy {
					return core.NewMPPPB(sets, ways, params)
				})
				b.ReportMetric(res.MPKI, "mpki")
			}
		})
	}
}

// BenchmarkTable3FeatureBenefit reproduces Table 3: per-feature best
// segment by leave-one-out MPKI, over a reduced feature and segment list.
func BenchmarkTable3FeatureBenefit(b *testing.B) {
	cfg := benchST()
	cfg.Warmup = 100_000
	cfg.Measure = 300_000
	feats := core.SingleThreadSetB()[:4]
	segs := []workload.SegmentID{
		{Bench: "gcc_like", Seg: 0}, {Bench: "sphinx3_like", Seg: 0}, {Bench: "mlpack_cf_like", Seg: 0},
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3FeatureBenefit(cfg, feats, segs, nil)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.PctIncrease > best {
				best = r.PctIncrease
			}
		}
		b.ReportMetric(best, "max-pct-mpki-increase")
	}
}

// cacheReplacementPolicy aliases the cache policy interface for bench
// helpers.
type cacheReplacementPolicy = cache.ReplacementPolicy
