package core

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// FuzzPredictorKernel fuzzes the predict/reference equivalence: for any
// access, history, and set metadata, and any randomly constructed (but
// valid) feature set of 1 to 64 features with random weights, predict must
// return the confidence and index vector that Feature.Index plus a plain
// summed-weights loop compute. featSeed drives the feature and weight
// generator, so the corpus explores the feature space as well as the
// input space.
func FuzzPredictorKernel(f *testing.F) {
	f.Add(uint64(0x402468), uint64(0xdeadbeef), uint64(0x1234), uint64(7), true, false, true)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(1), false, false, false)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), uint64(42), true, true, true)
	f.Add(uint64(1)<<63, uint64(0x7f)<<40, uint64(3), uint64(99), false, true, false)
	f.Fuzz(func(t *testing.T, pc, addr, h, featSeed uint64, ins, burst, lm bool) {
		rng := xrand.New(featSeed)
		p := NewPredictor(randomFeatureSet(rng, 1+int(featSeed%(laneWords*8))), 1, 1)
		scrambleState(p, rng)
		// Push the history so the w-th most recent PC is h*(w+1)+w.
		for w := MaxW; w >= 1; w-- {
			p.observe(cache.Access{PC: h*uint64(w+1) + uint64(w)}, 0, false, false)
		}
		a := cache.Access{PC: pc, Addr: addr, Type: trace.Load}
		p.setMeta[0] = setMeta{lastBlock: a.Block() + 1}
		if burst {
			p.setMeta[0] = setMeta{lastBlock: a.Block(), flags: setHaveBlock}
		}
		if lm {
			p.setMeta[0].flags |= setLastMiss
		}
		checkPredict(t, p, a, 0, ins)
	})
}
