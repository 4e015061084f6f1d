package sim

// Regression tests for the untimed runs' clock: the "now" passed down
// the hierarchy must never move backward across the warmup→measure
// boundary (it used to reset to 0 with the loop counter, sending time
// backward below the data-arrival stamps already in the caches).
//
// The clock is observed where the hierarchy uses it: Demand stamps every
// LLC fill it does not bypass with now+Mem, so successive LLC fill stamps
// must never decrease.

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/workload"
)

// stampWatch follows the ready-at stamps of successive LLC fills, failing
// the test on any backward step. Demand writes a fill's stamp after the
// policy's Fill hook returns, so each hook settles the previous fill first.
type stampWatch struct {
	t        *testing.T
	llc      *cache.Cache
	pending  bool
	set, way int
	last     uint64
	seen     int
}

// watchLLC arranges for w to read the LLC of the next hierarchy a run
// builds.
func (w *stampWatch) watchLLC(t *testing.T) {
	w.t = t
	hierarchyHook = func(h *cache.Hierarchy) { w.llc = h.LLC }
	t.Cleanup(func() { hierarchyHook = nil })
}

func (w *stampWatch) settle() {
	if !w.pending {
		return
	}
	w.pending = false
	w.seen++
	stamp := w.llc.ReadyAt(w.set, w.way)
	if stamp < w.last {
		w.t.Fatalf("LLC fill %d: clock moved backward (ready-at %d after %d)", w.seen, stamp, w.last)
	}
	w.last = stamp
}

func (w *stampWatch) filled(set, way int) {
	w.settle()
	w.pending, w.set, w.way = true, set, way
}

// finish settles the last fill and requires the clock to have run past
// the warmup: a measure phase that restarted time ends below it.
func (w *stampWatch) finish(cfg Config) {
	w.settle()
	if w.seen == 0 {
		w.t.Fatal("probe saw no LLC fills")
	}
	if w.last < cfg.Warmup {
		w.t.Fatalf("last LLC fill stamped %d, below the warmup length %d: measure phase restarted time", w.last, cfg.Warmup)
	}
}

// clockProbe wraps LRU as the LLC policy to watch its fill stamps.
type clockProbe struct {
	*policy.LRU
	stampWatch
}

func (p *clockProbe) Hit(set, way int, a cache.Access) {
	p.settle()
	p.LRU.Hit(set, way, a)
}

func (p *clockProbe) Fill(set, way int, a cache.Access) {
	p.filled(set, way)
	p.LRU.Fill(set, way, a)
}

func TestRunFastMPKIClockMonotonic(t *testing.T) {
	probe := &clockProbe{}
	probe.watchLLC(t)
	cfg := shortCfg()
	cfg.Warmup, cfg.Measure = 50_000, 150_000
	gen := workload.NewGenerator(seg("gcc_like", 0), workload.CoreBase(0))
	RunFastMPKI(cfg, gen, func(sets, ways int) cacheReplacementPolicy {
		probe.LRU = policy.NewLRU(sets, ways)
		return probe
	})
	probe.finish(cfg)
}

// clockCheckPred wraps a ConfidencePredictor with the same stamp watch:
// RunROC's probe forwards every LLC hit and fill to the trained predictor.
type clockCheckPred struct {
	ConfidencePredictor
	stampWatch
}

func (p *clockCheckPred) Hit(set, way int, a cache.Access) {
	p.settle()
	p.ConfidencePredictor.Hit(set, way, a)
}

func (p *clockCheckPred) Fill(set, way int, a cache.Access) {
	p.filled(set, way)
	p.ConfidencePredictor.Fill(set, way, a)
}

func TestRunROCClockMonotonic(t *testing.T) {
	cf, err := Confidence("mpppb")
	if err != nil {
		t.Fatal(err)
	}
	probe := &clockCheckPred{}
	probe.watchLLC(t)
	cfg := shortCfg()
	cfg.Warmup, cfg.Measure = 50_000, 150_000
	gen := workload.NewGenerator(seg("gcc_like", 0), workload.CoreBase(0))
	samples := RunROC(cfg, gen, func(sets, ways int) ConfidencePredictor {
		probe.ConfidencePredictor = cf(sets, ways)
		return probe
	})
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	probe.finish(cfg)
}
