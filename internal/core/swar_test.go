package core

import (
	"testing"

	"mpppb/internal/xrand"
)

// TestComputeIndicesMatchesScalarSum pins the confidence predict returns
// — the biased-byte lane gather and the SWAR sumLanes reduction — against
// a plain loop summing the indexed weights, on a second stream of random
// feature sets of 1 to 64 features, weight tables and predictor states.
func TestComputeIndicesMatchesScalarSum(t *testing.T) {
	checkRandomSets(t, xrand.New(12), checkConfidence)
}

// TestComputeIndicesMatchesScalarOnPaperSets checks the confidence sum
// alone on the published feature sets at saturated weights, where a
// sign-handling bug in the biased-byte reduction would surface first.
func TestComputeIndicesMatchesScalarOnPaperSets(t *testing.T) {
	checkPaperSets(t, checkConfidence)
}

// TestSumLanesExhaustsBias sweeps sumLanes over the byte-value extremes:
// every lane at 0 (weight -128 biased... the minimum gatherable byte is
// WeightMin+128) and every lane at the maximum, across all word counts.
func TestSumLanesExhaustsBias(t *testing.T) {
	wMin, wMax := int8(WeightMin), int8(WeightMax)
	for words := 1; words <= laneWords; words++ {
		for _, b := range []uint8{0, uint8(wMin) ^ weightBias, uint8(wMax) ^ weightBias, 255} {
			var lanes [laneWords]uint64
			word := uint64(0)
			for i := 0; i < 8; i++ {
				word = word<<8 | uint64(b)
			}
			for w := 0; w < words; w++ {
				lanes[w] = word
			}
			if got, want := sumLanes(&lanes, words), words*8*int(b); got != want {
				t.Fatalf("sumLanes(%d words of %#x) = %d, want %d", words, b, got, want)
			}
		}
	}
}

// TestFastKernelFoldClassification pins the compile-time fold dispatch:
// a foldNone kernel must imply the raw value always fits its table.
func TestFastKernelFoldClassification(t *testing.T) {
	rng := xrand.New(13)
	feats := randomFeatureSet(rng, 200)
	ks, _ := compileFastKernels(feats)
	for i, k := range ks {
		switch k.fold {
		case foldNone:
			if k.xmask != 0 || k.wmask>>k.bits != 0 {
				t.Errorf("kernel %d (%s): classified foldNone but raw can exceed %d bits", i, feats[i], k.bits)
			}
		case fold88:
			if k.bits != 8 {
				t.Errorf("kernel %d (%s): classified fold88 with %d index bits", i, feats[i], k.bits)
			}
		}
	}
}
