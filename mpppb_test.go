package mpppb

import (
	"strings"
	"testing"
)

// quickCfg keeps facade tests fast.
func quickCfg() Config {
	cfg := SingleThreadConfig()
	cfg.Warmup = 60_000
	cfg.Measure = 250_000
	return cfg
}

func TestSuiteFacade(t *testing.T) {
	if len(Benchmarks()) != 33 {
		t.Fatalf("%d benchmarks", len(Benchmarks()))
	}
	if len(Segments()) != 99 {
		t.Fatalf("%d segments", len(Segments()))
	}
	if len(Mixes(10, 1)) != 10 {
		t.Fatal("Mixes(10) wrong length")
	}
	found := map[string]bool{}
	for _, p := range Policies() {
		found[p] = true
	}
	for _, want := range []string{"lru", "mpppb", "mpppb-srrip", "hawkeye", "perceptron", "sdbp", "min"} {
		if !found[want] {
			t.Errorf("policy %q missing from facade list", want)
		}
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	_, err := Run(quickCfg(), Segment("mcf_like", 0), "nonesuch")
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := RunVerbose(quickCfg(), Segment("mcf_like", 0), "nonesuch"); err == nil {
		t.Fatal("RunVerbose accepted an unknown policy")
	}
}

// TestRunAllPoliciesOneSegment also pins RunVerbose: the same result as
// Run for every policy, with a report exactly for the mpppb* variants.
func TestRunAllPoliciesOneSegment(t *testing.T) {
	cfg := quickCfg()
	seg := Segment("sphinx3_like", 0)
	for _, p := range Policies() {
		res, err := Run(cfg, seg, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.IPC <= 0 {
			t.Errorf("%s: IPC %g", p, res.IPC)
		}
		vres, info, err := RunVerbose(cfg, seg, p)
		if err != nil || vres.Deterministic() != res.Deterministic() || (info != "") != strings.HasPrefix(p, "mpppb") {
			t.Errorf("%s: RunVerbose = (%+v, report %q, %v), want Run's result and a report iff mpppb*", p, vres, info, err)
		}
	}
}

func TestRunMinBeatsLRU(t *testing.T) {
	cfg := quickCfg()
	// The measurement window must cover multiple passes of the cyclic
	// working set for reuse to exist at all.
	cfg.Measure = 900_000
	seg := Segment("libquantum_like", 0)
	lru, err := Run(cfg, seg, "lru")
	if err != nil {
		t.Fatal(err)
	}
	min, err := Run(cfg, seg, "min")
	if err != nil {
		t.Fatal(err)
	}
	if min.MPKI >= lru.MPKI {
		t.Fatalf("MIN MPKI %.2f >= LRU %.2f", min.MPKI, lru.MPKI)
	}
}

func TestROCFacade(t *testing.T) {
	cfg := quickCfg()
	curve, err := ROC(cfg, Segment("gcc_like", 0), "mpppb")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) == 0 {
		t.Fatal("empty ROC curve")
	}
	if _, err := ROC(cfg, Segment("gcc_like", 0), "hawkeye"); err == nil {
		t.Fatal("hawkeye ROC did not error (Section 6.3)")
	}
}

func TestRunMixFacade(t *testing.T) {
	cfg := MultiCoreConfig()
	cfg.Warmup = 40_000
	cfg.Measure = 120_000
	mix := Mixes(1, 3)[0]
	res, err := RunMix(cfg, mix, "mpppb-srrip")
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Fatalf("core %d ipc %g", i, ipc)
		}
	}
}

func TestNewGeneratorFacade(t *testing.T) {
	g := NewGenerator(Segment("mcf_like", 0), 1<<40)
	if g.Name() != "mcf_like-0" {
		t.Fatalf("name %q", g.Name())
	}
}

func TestFeatureSearchFacade(t *testing.T) {
	res, err := FeatureSearch(FeatureSearchOptions{
		RandomSets: 2,
		ClimbSteps: 2,
		Training:   2,
		Warmup:     20_000,
		Measure:    80_000,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RandomMPKI) != 2 {
		t.Fatalf("%d random sets", len(res.RandomMPKI))
	}
	if res.HillClimbed.MPKI > res.BestRandom.MPKI {
		t.Fatal("hill climb worsened the best random set")
	}
	if res.MINMPKI > res.LRUMPKI {
		t.Fatal("MIN above LRU")
	}
}
