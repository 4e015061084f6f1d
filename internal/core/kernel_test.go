package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpppb/internal/cache"
	"mpppb/internal/obs"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// randomFeatureSet builds a valid feature set of the given size mixing all
// kinds, the way search explores them (offset features may declare E past
// the block-offset width).
func randomFeatureSet(rng *xrand.RNG, n int) []Feature {
	feats := make([]Feature, n)
	for i := range feats {
		f := Feature{
			Kind: Kind(rng.Intn(7)),
			A:    1 + rng.Intn(MaxA),
			W:    rng.Intn(MaxW + 1),
			X:    rng.Bool(),
		}
		switch f.Kind {
		case KindOffset:
			f.B = rng.Intn(OffsetBits)
			f.E = f.B + rng.Intn(OffsetBits-f.B+2)
		case KindPC, KindAddress:
			f.B = rng.Intn(40)
			f.E = f.B + rng.Intn(24)
		}
		feats[i] = f
	}
	return feats
}

// scrambleState randomizes every predictor input source: weights across
// the full 6-bit range, history rings, ring heads, and per-set metadata.
func scrambleState(p *Predictor, rng *xrand.RNG) {
	for i := range p.weights {
		p.weights[i] = int8(WeightMin + rng.Intn(WeightMax-WeightMin+1))
	}
	for c := range p.hist {
		for i := range p.hist[c] {
			p.hist[c][i] = rng.Uint64()
		}
		p.heads[c] = uint32(rng.Intn(histRingLen))
	}
	for s := range p.setMeta {
		p.setMeta[s] = setMeta{lastBlock: rng.Uint64() >> 40, flags: uint8(rng.Intn(4))}
	}
}

// refInput builds the reference Input for an access from the predictor's
// own history ring and set metadata: History[w] is the w-th most recent
// PC the core observed, Burst re-references the set's resident MRU block
// on a hit, and LastMiss is the set's lastmiss bit.
func refInput(p *Predictor, a cache.Access, set int, insert bool) Input {
	m := p.setMeta[set]
	in := Input{
		PC:       a.PC,
		Addr:     a.Addr,
		Insert:   insert,
		Burst:    !insert && m.flags&setHaveBlock != 0 && m.lastBlock == a.Block(),
		LastMiss: m.flags&setLastMiss != 0,
	}
	in.History[0] = a.PC
	for w := 1; w <= MaxW; w++ {
		in.History[w] = p.historyPC(a.Core, w)
	}
	return in
}

// checkIndices runs predict and compares the index vector it leaves in
// p.idx against Feature.Index per feature over refInput.
func checkIndices(t testing.TB, p *Predictor, a cache.Access, set int, insert bool) {
	t.Helper()
	in := refInput(p, a, set, insert)
	p.predict(a, set, insert)
	for i, f := range p.features {
		if want := uint16(f.Index(&in)); p.idx[i] != want {
			t.Fatalf("access %+v set %d insert %v: %s: idx %#x, reference %#x",
				a, set, insert, f, p.idx[i], want)
		}
	}
}

// checkConfidence runs predict and compares its confidence against a plain
// loop summing the weights Feature.Index selects over refInput, clamped.
func checkConfidence(t testing.TB, p *Predictor, a cache.Access, set int, insert bool) {
	t.Helper()
	in := refInput(p, a, set, insert)
	sum := 0
	for i, f := range p.features {
		sum += int(p.tables[i][f.Index(&in)])
	}
	if got, want := p.predict(a, set, insert), clampConf(sum); got != want {
		t.Fatalf("%d features, access %+v set %d insert %v: predict %d, reference %d",
			len(p.features), a, set, insert, got, want)
	}
}

// checkPredict checks both the confidence and the index vector of predict.
func checkPredict(t testing.TB, p *Predictor, a cache.Access, set int, insert bool) {
	t.Helper()
	checkConfidence(t, p, a, set, insert)
	checkIndices(t, p, a, set, insert)
}

// TestKernelMatchesReferenceIndex pins predict — the fastKernel walk, the
// biased-byte lane gather, and the SWAR reduction — against Feature.Index
// and a plain summed-weights loop: random feature sets of 1 to 64 features
// (every lane word count), random weight tables, random accesses, and
// predictor state evolving through observe.
func TestKernelMatchesReferenceIndex(t *testing.T) {
	checkRandomSets(t, xrand.New(11), checkPredict)
}

// checkRandomSets drives check over 64 random feature sets — 1 and 64
// features first, so every lane word count is reached — each with
// scrambled state and 300 random accesses fed back through observe.
func checkRandomSets(t *testing.T, rng *xrand.RNG, check func(testing.TB, *Predictor, cache.Access, int, bool)) {
	t.Helper()
	const sets, cores = 64, 2
	for trial := 0; trial < 64; trial++ {
		nf := 1 + rng.Intn(laneWords*8)
		if trial < 2 {
			nf = []int{1, laneWords * 8}[trial]
		}
		feats := randomFeatureSet(rng, nf)
		p := NewPredictor(feats, sets, cores)
		scrambleState(p, rng)
		for i := 0; i < 300; i++ {
			set := rng.Intn(sets)
			a := cache.Access{
				PC:   rng.Uint64() >> uint(rng.Intn(40)),
				Addr: rng.Uint64() >> uint(rng.Intn(40)),
				Core: rng.Intn(cores),
				Type: trace.Load,
			}
			if rng.Intn(4) == 0 {
				// Re-reference the set's last block so bursts occur.
				a.Addr = p.setMeta[set].lastBlock<<trace.BlockBits | uint64(rng.Intn(trace.BlockSize))
			}
			insert := rng.Bool()
			check(t, p, a, set, insert)
			p.observe(a, set, insert, rng.Bool())
		}
	}
}

// TestKernelMatchesReferenceOnPaperSets runs the same equivalence over the
// published feature sets with fixed accesses at saturated weights: a
// regression names the exact feature, and a sign-handling bug in the
// biased-byte reduction would surface here first.
func TestKernelMatchesReferenceOnPaperSets(t *testing.T) {
	checkPaperSets(t, checkPredict)
}

// checkPaperSets drives check over the published feature sets at both
// saturated weights, on a miss after a miss (lastmiss set) and then on a
// burst hit re-referencing the same block.
func checkPaperSets(t *testing.T, check func(testing.TB, *Predictor, cache.Access, int, bool)) {
	t.Helper()
	for name, set := range map[string][]Feature{
		"1a": SingleThreadSetA(),
		"1b": SingleThreadSetB(),
		"2":  MultiProgrammedSet(),
	} {
		for _, w := range []int8{WeightMin, WeightMax} {
			t.Run(fmt.Sprintf("%s/%d", name, w), func(t *testing.T) {
				p := NewPredictor(set, 64, 1)
				for i := range p.weights {
					p.weights[i] = w
				}
				for i := MaxW; i >= 1; i-- {
					p.observe(demand(0x400000+uint64(i)*0x1234, 0), 3, true, true)
				}
				a := demand(0x402468, 0xdeadbeef)
				check(t, p, a, 3, true)
				p.observe(a, 3, true, true)
				check(t, p, a, 3, false)
			})
		}
	}
}

// TestFold8MatchesFoldTo pins the unrolled 8-bit fold against the generic
// loop.
func TestFold8MatchesFoldTo(t *testing.T) {
	cases := []uint64{0, 1, 0xab, 0xfeedfeedfeedfeed >> 2, ^uint64(0), 1 << 63, 0x123456789abcdef0}
	for _, v := range cases {
		if fold8(v) != foldTo(v, 8) {
			t.Errorf("fold8(%#x) = %#x, foldTo = %#x", v, fold8(v), foldTo(v, 8))
		}
	}
	if err := quick.Check(func(v uint64) bool { return fold8(v) == foldTo(v, 8) }, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAccessDoesNotAllocate guards the zero-allocation property
// of the MPPPB LLC hot path: once the structures are built, simulating an
// access must not touch the heap.
func TestSteadyStateAccessDoesNotAllocate(t *testing.T) {
	m := NewMPPPB(2048, 16, SingleThreadParams())
	c := cache.New("llc", 2048, 16, m)
	step := func(i int) {
		c.Access(cache.Access{
			PC:   0x400000 + uint64(i%13)*4,
			Addr: uint64(i)*88 + uint64(i%7)<<14,
			Type: trace.Load,
		})
	}
	for i := 0; i < 50000; i++ {
		step(i)
	}
	n := 50000
	if avg := testing.AllocsPerRun(2000, func() {
		step(n)
		n++
	}); avg != 0 {
		t.Fatalf("steady-state LLC access allocates %v times per access", avg)
	}
}

// TestSteadyStateAccessDoesNotAllocateWithObs repeats the steady-state
// guard with observability in its default deployment: metrics registered
// in the process-wide registry and updated every step, with no -listen
// server attached. The obs layer promises updates are plain atomic ops, so
// instrumentation must not cost the hot path its zero-alloc property.
func TestSteadyStateAccessDoesNotAllocateWithObs(t *testing.T) {
	m := NewMPPPB(2048, 16, SingleThreadParams())
	c := cache.New("llc", 2048, 16, m)
	ctr := obs.Default().Counter("mpppb_core_test_accesses_total", "zero-alloc guard probe")
	hist := obs.Default().Histogram("mpppb_core_test_seconds", "zero-alloc guard probe", obs.LatencyBuckets)
	var disabled *obs.Counter
	step := func(i int) {
		c.Access(cache.Access{
			PC:   0x400000 + uint64(i%13)*4,
			Addr: uint64(i)*88 + uint64(i%7)<<14,
			Type: trace.Load,
		})
		ctr.Inc()
		hist.Observe(0.004)
		disabled.Inc()
	}
	for i := 0; i < 50000; i++ {
		step(i)
	}
	n := 50000
	if avg := testing.AllocsPerRun(2000, func() {
		step(n)
		n++
	}); avg != 0 {
		t.Fatalf("instrumented steady-state LLC access allocates %v times per access", avg)
	}
}
