package sim

import (
	"testing"
	"testing/quick"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
	"mpppb/internal/xrand"
)

// TestRunMultiDeterministic: identical multi-programmed runs must produce
// bit-identical results — the whole stack (generators, scheduling, caches,
// predictors, timing) is deterministic by design.
func TestRunMultiDeterministic(t *testing.T) {
	cfg := MultiCoreConfig()
	cfg.Warmup = 40_000
	cfg.Measure = 120_000
	mix := workload.Mixes(1, 99)[0]
	pf, _ := Policy("mpppb-srrip")
	a := RunMulti(cfg, mix, pf)
	b := RunMulti(cfg, mix, pf)
	if a != b {
		t.Fatalf("multi runs differ:\n%+v\n%+v", a, b)
	}
}

// TestMPPPBFuzzedAccessStream drives MPPPB with structureless random
// accesses through a real cache and checks nothing panics and cache
// invariants hold. (testing/quick generates the access pattern.)
func TestMPPPBFuzzedAccessStream(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		rng := xrand.New(seed)
		m := core.NewMPPPB(16, 16, core.SingleThreadParams())
		c := cache.New("llc", 16, 16, m)
		steps := int(n%4000) + 100
		for i := 0; i < steps; i++ {
			typ := trace.Load
			switch rng.Intn(10) {
			case 0:
				typ = trace.Store
			case 1:
				typ = trace.Prefetch
			case 2:
				typ = trace.Writeback
			}
			pc := uint64(0x400) + rng.Uint64n(64)*4
			if typ == trace.Prefetch {
				pc = trace.PrefetchPC
			}
			c.Access(cache.Access{
				PC:   pc,
				Addr: rng.Uint64n(1 << 20),
				Type: typ,
				Core: 0,
			})
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHybridPolicyEndToEnd exercises the future-work hybrid through the
// full single-thread driver.
func TestHybridPolicyEndToEnd(t *testing.T) {
	cfg := shortCfg()
	pf, err := Policy("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(seg("sphinx3_like", 0), 0)
	res := RunSingle(cfg, gen, pf)
	lru := RunSingle(cfg, gen, lruFactory)
	if res.IPC <= 0 {
		t.Fatal("hybrid produced no result")
	}
	// On a thrash loop the hybrid must capture most of the MPPPB-side win.
	if res.IPC < lru.IPC {
		t.Fatalf("hybrid IPC %.3f below LRU %.3f on thrash loop", res.IPC, lru.IPC)
	}
}

// TestHybridPolicyPins pins both hybrids' exact results on one short
// segment. In Hawkeye-managed sets the cache fills through MPPPB's Fill
// hook with no Victim before it, a path no other golden covers.
func TestHybridPolicyPins(t *testing.T) {
	cfg := shortCfg()
	for _, c := range []struct {
		policy string
		want   Result
	}{
		{"hybrid", Result{Segment: "gcc_like-1", Instructions: 400002, Cycles: 687304,
			IPC: 0.5819870101148836, LLCAccesses: 127483, LLCMisses: 77715,
			MPKI: 194.28652856735715, Bypasses: 7514}},
		{"hybrid-srrip", Result{Segment: "gcc_like-1", Instructions: 400002, Cycles: 687860,
			IPC: 0.5815165876777251, LLCAccesses: 127483, LLCMisses: 77903,
			MPKI: 194.7565262173689, Bypasses: 1388}},
	} {
		pf, err := Policy(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		got := RunSingle(cfg, workload.NewGenerator(seg("gcc_like", 1), 0), pf).Deterministic()
		if got != c.want {
			t.Errorf("%s: got %#v, want %#v", c.policy, got, c.want)
		}
	}
}

// TestSHiPPolicyEndToEnd exercises SHiP through the full driver.
func TestSHiPPolicyEndToEnd(t *testing.T) {
	cfg := shortCfg()
	pf, err := Policy("ship")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(seg("sphinx3_like", 0), 0)
	res := RunSingle(cfg, gen, pf)
	lru := RunSingle(cfg, gen, lruFactory)
	if res.MPKI > lru.MPKI {
		t.Fatalf("SHiP MPKI %.2f above LRU %.2f on thrash loop", res.MPKI, lru.MPKI)
	}
}

// TestMPPPBNeverFarBelowLRU encodes the paper's stability claim (Section
// 6.2.1): MPPPB "never performs below 95% of the performance of LRU".
// Allow a small extra margin for the scaled-down windows used in tests.
func TestMPPPBNeverFarBelowLRU(t *testing.T) {
	cfg := shortCfg()
	cfg.Measure = 900_000
	pf, _ := Policy("mpppb")
	for _, bench := range []string{
		"libquantum_like", "gcc_like", "lbm_like", "mcf_like",
		"h264ref_like", "povray_like", "data_caching_like", "sjeng_like",
	} {
		gen := workload.NewGenerator(seg(bench, 0), 0)
		lru := RunSingle(cfg, gen, lruFactory)
		mp := RunSingle(cfg, gen, pf)
		if mp.IPC < 0.93*lru.IPC {
			t.Errorf("%s: MPPPB IPC %.3f below 93%% of LRU %.3f", bench, mp.IPC, lru.IPC)
		}
	}
}
