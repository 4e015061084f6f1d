package main

import (
	"fmt"
	"runtime"
	"strings"

	"mpppb/internal/belady"
	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/cpu"
	"mpppb/internal/policy"
	"mpppb/internal/prefetch"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/verify"
	"mpppb/internal/workload"
)

// The traced replicas below reproduce sim.RunSingle, sim.RunSingleMIN,
// sim.RunMulti and mpppb.RunTrace call for call from the layers' public
// functions, with a span around every call into a layer. Timing decorators
// wrap the replacement policies, the prefetcher and the generator; the
// driver loop times its own calls into the CPU model and the hierarchy.
// Their deterministic results must equal the untraced ops' results.

// counts accumulates the work each layer did over the traced ops, so
// per-layer ratios are measured where the work happens. Cache statistics
// cover warmup and measurement.
type counts struct {
	records, instr   uint64
	l1, l2, llc      cache.Stats
	pfCalls, pfIssue uint64
	// Per LLC-policy layer: LLC lookups and traced self nanoseconds of
	// the ops that ran that layer at the LLC.
	llcLookups [numLayers]uint64
	opNS       [numLayers]int64
	// The predictor's own counters, over ops running core.MPPPB.
	trains, bypasses, coreMisses uint64
	// Check-mode accounting for the verify layer.
	checkEvents, checkRecords uint64
	checkOnNS, checkOffNS     int64
	mallocs                   uint64
}

func addStats(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.DemandAccesses += s.DemandAccesses
	dst.DemandHits += s.DemandHits
	dst.DemandMisses += s.DemandMisses
	dst.PrefetchAccesses += s.PrefetchAccesses
	dst.PrefetchMisses += s.PrefetchMisses
	dst.PrefetchFills += s.PrefetchFills
	dst.Bypasses += s.Bypasses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
}

// timedPolicy is a cache.ReplacementPolicy decorator charging each
// callback to layer l.
type timedPolicy struct {
	inner cache.ReplacementPolicy
	t     *tracer
	l     layer
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Hit(set, way int, a cache.Access) {
	p.t.begin(p.l, hookHit)
	p.inner.Hit(set, way, a)
	p.t.end()
}

func (p *timedPolicy) Victim(set int, a cache.Access) (int, bool) {
	p.t.begin(p.l, hookVictim)
	way, bypass := p.inner.Victim(set, a)
	p.t.end()
	return way, bypass
}

func (p *timedPolicy) Fill(set, way int, a cache.Access) {
	p.t.begin(p.l, hookFill)
	p.inner.Fill(set, way, a)
	p.t.end()
}

func (p *timedPolicy) Evict(set, way int, blockAddr uint64) {
	p.t.begin(p.l, hookEvict)
	p.inner.Evict(set, way, blockAddr)
	p.t.end()
}

// timedPrefetcher is a cache.Prefetcher decorator.
type timedPrefetcher struct {
	inner cache.Prefetcher
	t     *tracer
	c     *counts
}

func (p *timedPrefetcher) OnL1Miss(pc, addr uint64) []uint64 {
	p.t.begin(layerPrefetch, hookNone)
	out := p.inner.OnL1Miss(pc, addr)
	p.t.end()
	p.c.pfCalls++
	p.c.pfIssue += uint64(len(out))
	return out
}

// timedGen is a trace.Generator decorator whose batched refills are
// charged to the source layer.
type timedGen struct {
	inner trace.Generator
	t     *tracer
}

func (g *timedGen) Name() string { return g.inner.Name() }
func (g *timedGen) Reset()       { g.inner.Reset() }

func (g *timedGen) Next(rec *trace.Record) {
	g.t.begin(layerSource, hookNone)
	g.inner.Next(rec)
	g.t.end()
}

func (g *timedGen) NextBatch(recs []trace.Record) int {
	g.t.begin(layerSource, hookNone)
	n := trace.FillBatch(g.inner, recs)
	g.t.end()
	return n
}

// timedColGen adds the columnar refill for column-major sources.
type timedColGen struct {
	timedGen
	cb trace.ColumnBatcher
}

func (g *timedColGen) NextColumns(dst *trace.Columns, max int) int {
	g.t.begin(layerSource, hookNone)
	n := g.cb.NextColumns(dst, max)
	g.t.end()
	return n
}

func timeGen(t *tracer, g trace.Generator) trace.Generator {
	if cb, ok := g.(trace.ColumnBatcher); ok {
		return &timedColGen{timedGen{g, t}, cb}
	}
	return &timedGen{g, t}
}

// batchSize matches the simulator's batch cursor.
const batchSize = 256

// reader mirrors the simulator's batch cursor: it refills through the
// columnar path when the source supports it, and counts records.
type reader struct {
	gen    trace.Generator
	cb     trace.ColumnBatcher
	n, pos int
	buf    [batchSize]trace.Record
	cols   trace.Columns
	rec    trace.Record
	c      *counts
}

func newReader(gen trace.Generator, c *counts) *reader {
	r := &reader{gen: gen, c: c}
	if cb, ok := gen.(trace.ColumnBatcher); ok {
		r.cb = cb
		r.cols = trace.Columns{
			PCs:    make([]uint64, batchSize),
			Addrs:  make([]uint64, batchSize),
			Writes: make([]bool, batchSize),
			NonMem: make([]uint16, batchSize),
		}
	}
	return r
}

func (r *reader) next() *trace.Record {
	if r.pos >= r.n {
		if r.cb != nil {
			r.n = r.cb.NextColumns(&r.cols, batchSize)
		} else {
			r.n = trace.FillBatch(r.gen, r.buf[:])
		}
		if r.n == 0 {
			panic(fmt.Sprintf("perfbench: generator %q exhausted mid-run", r.gen.Name()))
		}
		r.pos = 0
	}
	r.c.records++
	if r.cb != nil {
		rec := &r.rec
		rec.PC = r.cols.PCs[r.pos]
		rec.Addr = r.cols.Addrs[r.pos]
		rec.IsWrite = r.cols.Writes[r.pos]
		rec.NonMem = r.cols.NonMem[r.pos]
		r.pos++
		return rec
	}
	rec := &r.buf[r.pos]
	r.pos++
	return rec
}

// llcLayerOf attributes an LLC policy to its layer.
func llcLayerOf(name string) layer {
	switch {
	case strings.HasPrefix(name, "mpppb"):
		return layerCore
	case name == "hawkeye":
		return layerHawkeye
	case name == "perceptron":
		return layerPerceptron
	case name == "min":
		return layerBelady
	}
	return layerPolicy
}

// machine is one replica run's wiring: the shared LLC and each core's
// hierarchy, CPU model and record cursor.
type machine struct {
	t      *tracer
	c      *counts
	llc    *cache.Cache
	mpppb  *core.MPPPB // the LLC policy when it is the predictor
	hs     []*cache.Hierarchy
	cores  []*cpu.Core
	rds    []*reader
	checks []*verify.Checker
}

// newMachine wires cores the way the simulator does (buildHierarchy,
// attachChecks), then decorates every policy and prefetcher from outside:
// verify.Attach picks its oracle by the concrete policy type, so the
// decorator goes around the checker's shadow, not inside it.
func newMachine(t *tracer, c *counts, cfg sim.Config, pf sim.PolicyFactory, llcLayer layer, gens []trace.Generator) *machine {
	m := &machine{t: t, c: c, llc: sim.NewLLC(cfg, pf)}
	m.mpppb, _ = m.llc.Policy().(*core.MPPPB)
	for i, g := range gens {
		h := &cache.Hierarchy{
			Core: i,
			L1:   cache.NewBySize("l1d", cfg.L1Size, cfg.L1Ways, newLRU(cfg.L1Size, cfg.L1Ways)),
			L2:   cache.NewBySize("l2", cfg.L2Size, cfg.L2Ways, newLRU(cfg.L2Size, cfg.L2Ways)),
			LLC:  m.llc,
			Lat:  cfg.Lat,
		}
		if cfg.Prefetch {
			h.Pf = prefetch.NewStream()
		}
		m.hs = append(m.hs, h)
		m.cores = append(m.cores, cpu.New(cfg.CPU))
		m.rds = append(m.rds, newReader(timeGen(t, g), c))
	}
	if cfg.Check {
		m.checks = append(m.checks, verify.Attach(m.llc))
		for _, h := range m.hs {
			m.checks = append(m.checks, verify.Attach(h.L1), verify.Attach(h.L2))
		}
	}
	m.llc.SetPolicy(&timedPolicy{m.llc.Policy(), t, llcLayer})
	for _, h := range m.hs {
		h.L1.SetPolicy(&timedPolicy{h.L1.Policy(), t, layerPolicy})
		h.L2.SetPolicy(&timedPolicy{h.L2.Policy(), t, layerPolicy})
		if h.Pf != nil {
			h.Pf = &timedPrefetcher{h.Pf, t, c}
		}
	}
	return m
}

func newLRU(size, ways int) cache.ReplacementPolicy {
	return policy.NewLRU(size/trace.BlockSize/ways, ways)
}

// step runs core i's next record through the CPU model and the hierarchy
// and returns the instructions it accounts for.
func (m *machine) step(i int) uint64 {
	rec := m.rds[i].next()
	core, t := m.cores[i], m.t
	if rec.NonMem > 0 {
		t.begin(layerCPU, hookNone)
		core.NonMem(int(rec.NonMem))
		t.end()
	}
	now := core.Now()
	t.begin(layerCache, hookNone)
	lat := m.hs[i].Demand(rec.PC, rec.Addr, rec.IsWrite, now)
	t.end()
	t.begin(layerCPU, hookNone)
	core.Mem(lat)
	t.end()
	n := rec.Instructions()
	m.c.instr += n
	return n
}

// collect adds the caches' statistics to the counts; called before each
// statistics reset and at the end of the run.
func (m *machine) collect() {
	for _, h := range m.hs {
		addStats(&m.c.l1, h.L1.Stats)
		addStats(&m.c.l2, h.L2.Stats)
	}
	addStats(&m.c.llc, m.llc.Stats)
}

// resetStats starts the measurement window as the simulator does.
func (m *machine) resetStats() {
	m.collect()
	for i := range m.hs {
		m.cores[i].ResetStats()
		m.hs[i].ResetStats()
	}
	m.llc.ResetStats()
}

// finish runs the checkers' final sweeps and records the run's counters.
func (m *machine) finish() {
	m.collect()
	for _, k := range m.checks {
		k.Finish()
		m.c.checkEvents += k.Events()
	}
	if m.mpppb != nil {
		st := m.mpppb.Stats()
		m.c.trains += st.TrainEvents
		m.c.bypasses += st.Bypasses
	}
}

// tracedSingle mirrors sim.RunSingle.
func tracedSingle(t *tracer, c *counts, cfg sim.Config, gen trace.Generator, pf sim.PolicyFactory, llcLayer layer) sim.Result {
	gen.Reset()
	m := newMachine(t, c, cfg, pf, llcLayer, []trace.Generator{gen})
	llcBefore, missBefore := c.llc.Accesses, c.llc.Misses
	runPhase := func(limit uint64) {
		var done uint64
		for done < limit {
			done += m.step(0)
		}
	}
	runPhase(cfg.Warmup)
	m.resetStats()
	runPhase(cfg.Measure)

	core, llc := m.cores[0], m.llc
	instr := core.Instructions()
	res := sim.Result{
		Segment:      gen.Name(),
		Instructions: instr,
		Cycles:       core.Cycles(),
		IPC:          core.IPC(),
		LLCAccesses:  llc.Stats.DemandAccesses + llc.Stats.PrefetchAccesses,
		LLCMisses:    llc.Stats.DemandMisses + llc.Stats.PrefetchMisses,
		MPKI:         stats.MPKI(llc.Stats.DemandMisses+llc.Stats.PrefetchMisses, instr),
		Bypasses:     llc.Stats.Bypasses,
	}
	m.finish()
	c.llcLookups[llcLayer] += c.llc.Accesses - llcBefore
	if m.mpppb != nil {
		c.coreMisses += c.llc.Misses - missBefore
	}
	return res
}

// tracedMIN mirrors sim.RunSingleMIN.
func tracedMIN(t *tracer, c *counts, cfg sim.Config, gen trace.Generator) (lru, min sim.Result) {
	var rec *belady.Recorder
	lru = tracedSingle(t, c, cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		rec = belady.NewRecorder(policy.NewLRU(sets, ways))
		return rec
	}, layerBelady)
	min = tracedSingle(t, c, cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		return belady.NewMIN(sets, ways, rec.Stream())
	}, layerBelady)
	min.Segment = gen.Name()
	return lru, min
}

// tracedTrace mirrors mpppb.RunTrace for a registered policy.
func tracedTrace(t *tracer, c *counts, cfg sim.Config, name string, recs []trace.Record, pf sim.PolicyFactory, llcLayer layer) sim.Result {
	t.begin(layerSource, hookNone)
	gen := trace.NewColumnarReplay(name, trace.ColumnsOf(recs))
	t.end()
	return tracedSingle(t, c, cfg, gen, pf, llcLayer)
}

// tracedMulti mirrors sim.RunMulti, including its pickNext scheduling.
func tracedMulti(t *tracer, c *counts, cfg sim.Config, mix workload.Mix, pf sim.PolicyFactory, llcLayer layer) sim.MultiResult {
	gens := make([]trace.Generator, 4)
	t.begin(layerSource, hookNone)
	for i := range gens {
		gens[i] = workload.NewGenerator(mix[i], workload.CoreBase(i))
	}
	t.end()
	m := newMachine(t, c, cfg, pf, llcLayer, gens)
	llcBefore, missBefore := c.llc.Accesses, c.llc.Misses
	cores := m.cores
	pickNext := func() int {
		best := 0
		bc := cores[0].Now()
		for i := 1; i < 4; i++ {
			if now := cores[i].Now(); now < bc {
				best, bc = i, now
			}
		}
		return best
	}
	warmed := func() bool {
		for i := 0; i < 4; i++ {
			if cores[i].Instructions() < cfg.Warmup {
				return false
			}
		}
		return true
	}
	for !warmed() {
		m.step(pickNext())
	}
	m.resetStats()

	res := sim.MultiResult{Mix: mix}
	var snapped [4]bool
	for {
		done := true
		for i := 0; i < 4; i++ {
			if !snapped[i] {
				if cores[i].Instructions() >= cfg.Measure {
					res.IPC[i] = cores[i].IPC()
					res.Instructions[i] = cores[i].Instructions()
					res.Cycles[i] = cores[i].Cycles()
					snapped[i] = true
				} else {
					done = false
				}
			}
		}
		if done {
			break
		}
		m.step(pickNext())
	}
	var totalInstr uint64
	for i := 0; i < 4; i++ {
		totalInstr += res.Instructions[i]
	}
	llc := m.llc
	res.LLCMisses = llc.Stats.DemandMisses + llc.Stats.PrefetchMisses
	res.LLCAccesses = llc.Stats.DemandAccesses + llc.Stats.PrefetchAccesses
	res.MPKI = stats.MPKI(llc.Stats.DemandMisses+llc.Stats.PrefetchMisses, totalInstr)
	m.finish()
	c.llcLookups[llcLayer] += c.llc.Accesses - llcBefore
	if m.mpppb != nil {
		c.coreMisses += c.llc.Misses - missBefore
	}
	return res
}

// runTraced runs op o's replica inside an op span and returns its
// outcome and wall duration in nanoseconds, instrumentation included.
func runTraced(t *tracer, c *counts, o *op, cfg sim.Config) (outcome, int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	l := llcLayerOf(o.policy)
	start, self0 := t.clock(), t.total()
	t.begin(layerOp, hookNone)
	var out outcome
	switch o.kind {
	case kindSingle:
		out.res = tracedSingle(t, c, cfg, o.gen, o.pf, l)
	case kindMIN:
		out.lru, out.res = tracedMIN(t, c, cfg, o.gen)
	case kindMulti:
		out.multi = tracedMulti(t, c, cfg, o.mix, o.pf, l)
	case kindTrace:
		out.res = tracedTrace(t, c, cfg, o.name, o.recs, o.pf, l)
	}
	t.end()
	d := t.clock() - start
	c.opNS[l] += t.total() - self0
	runtime.ReadMemStats(&ms)
	c.mallocs += ms.Mallocs - m0
	return out, d
}
