package core

import (
	"fmt"

	"mpppb/internal/cache"
)

// Weight range: "6 bit weights ranging from -32 to +31 provide a good
// trade-off between accuracy and area" (Section 3.4).
const (
	WeightMin = -32
	WeightMax = 31
)

// ConfMin/ConfMax clamp the summed confidence to the sampler's 9-bit signed
// confidence field (Section 3.3).
const (
	ConfMin = -256
	ConfMax = 255
)

// setMeta is the per-LLC-set predictor metadata: the most recently used
// block (burst feature) plus the lastmiss and have-block bits, packed into
// one flags byte. The three fields are always read together, so keeping
// them in one 16-byte record costs one cache line per prediction where
// three parallel slices cost three.
type setMeta struct {
	lastBlock uint64
	flags     uint8
}

// setMeta flag bits.
const (
	setLastMiss  uint8 = 1 << 0
	setHaveBlock uint8 = 1 << 1
)

// Predictor is the multiperspective reuse predictor: one weight table per
// feature, per-core PC history, and per-set metadata feeding the burst and
// lastmiss features.
//
// The hot path is compiled: NewPredictor resolves each feature into a
// fastKernel (kernel.go) and lays every weight table out in one contiguous
// array, so a prediction is a flat walk over precomputed operations with
// no per-access parameter derivation and no history copying.
type Predictor struct {
	features []Feature
	kernels  []fastKernel // compiled features driving predict
	histOffs []uint32     // distinct history ring offsets backing srcs[srcHist+j]
	weights  []int8       // all weight tables, concatenated in feature order
	tables   [][]int8     // per-feature views into weights (introspection, training)

	// hist[core] is a ring of recent memory-access PCs (not including the
	// access currently being predicted); heads[core] indexes the most
	// recent entry.
	hist  [][histRingLen]uint64
	heads []uint32

	// Per-LLC-set metadata, one record per set so a prediction touches a
	// single cache line of it (predict reads the lastmiss bit, the
	// have-block bit, and the last block address together on every call).
	setMeta []setMeta

	// scratch reused across calls: the per-feature index vector, the SWAR
	// weight-staging vector, and the per-prediction source vector.
	//
	// idx holds the table indices of the most recent prediction. It
	// survives between calls, which is what lets MPPPB's Victim→Fill memo
	// train from a prediction without recomputing it on the Fill side.
	idx   []uint16
	lanes [laneWords]uint64
	srcs  []uint64
}

// NewPredictor builds predictor state for an LLC with the given number of
// sets, shared by the given number of cores.
func NewPredictor(features []Feature, llcSets, cores int) *Predictor {
	if len(features) == 0 {
		panic("core: empty feature set")
	}
	if len(features) > laneWords*8 {
		panic("core: predictor supports at most 64 features")
	}
	if cores <= 0 {
		panic("core: non-positive core count")
	}
	p := &Predictor{
		features: features,
		tables:   make([][]int8, len(features)),
		hist:     make([][histRingLen]uint64, cores),
		heads:    make([]uint32, cores),
		setMeta:  make([]setMeta, llcSets),
		idx:      make([]uint16, len(features)),
	}
	total := 0
	for _, f := range features {
		if err := f.Validate(); err != nil {
			panic(err)
		}
		total += f.TableSize()
	}
	p.weights = make([]int8, total)
	base := 0
	for i, f := range features {
		sz := f.TableSize()
		p.tables[i] = p.weights[base : base+sz : base+sz]
		base += sz
	}
	p.kernels, p.histOffs = compileFastKernels(features)
	p.srcs = make([]uint64, srcHist+len(p.histOffs))
	return p
}

// Features returns the feature set (callers must not modify it).
func (p *Predictor) Features() []Feature { return p.features }

// TotalIndexBits returns the number of bits needed to store one feature-
// index vector in a sampler entry, for area accounting (Section 4.4).
func (p *Predictor) TotalIndexBits() int {
	n := 0
	for _, f := range p.features {
		n += f.IndexBits()
	}
	return n
}

// predict computes the clamped confidence for an access and leaves each
// feature's table index in p.idx for sampler training. insert marks
// misses; set is the LLC set index. It fills the source vector straight
// from the access, the requesting core's history ring and the set's
// metadata — PC, address, the three boolean raws, and each distinct
// history depth read from the ring one time — then runs gather.
func (p *Predictor) predict(a cache.Access, set int, insert bool) int {
	core := a.Core
	if core < 0 || core >= len(p.hist) {
		core = 0
	}
	hist, head := &p.hist[core], p.heads[core]
	pc := accessPC(a)
	m := &p.setMeta[set]
	srcs := p.srcs // srcs[srcZero] stays 0
	srcs[srcPC] = pc
	srcs[srcAddr] = a.Addr
	srcs[srcBurst] = b2u(!insert && m.flags&setHaveBlock != 0 && m.lastBlock == a.Block())
	srcs[srcInsert] = b2u(insert)
	srcs[srcLastMiss] = b2u(m.flags&setLastMiss != 0)
	for j, off := range p.histOffs {
		srcs[srcHist+j] = hist[(head+off)&histRingMask]
	}
	return p.gather(pc >> 2)
}

// gather runs the compiled index/weight walk over the filled source
// vector: per feature, the fastKernel select/shift/mask/fold, the idx
// store, and the biased weight byte ORed into its staging lane; then the
// SWAR reduction (kernel.go).
func (p *Predictor) gather(pcMix uint64) int {
	nf := len(p.kernels)
	kernels := p.kernels
	idx := p.idx
	weights := p.weights
	srcs := p.srcs

	words := (nf + 7) / 8
	i := 0
	for w := 0; w < words; w++ {
		// One lane word gathers up to eight features; the word accumulates
		// in a register and is stored once.
		var lane uint64
		end := i + 8
		if end > nf {
			end = nf
		}
		for sh := uint(0); i < end; i, sh = i+1, sh+8 {
			k := &kernels[i]
			raw := (srcs[k.src] >> k.shift) & k.wmask
			raw ^= pcMix & k.xmask
			var ix uint32
			switch k.fold {
			case foldNone:
				ix = uint32(raw)
			case fold88:
				ix = fold8(raw)
			default:
				if raw>>k.bits == 0 {
					ix = uint32(raw)
				} else {
					ix = foldTo(raw, int(k.bits))
				}
			}
			ix &= k.mask
			idx[i] = uint16(ix)
			lane |= uint64(uint8(weights[k.base+ix])^weightBias) << sh
		}
		p.lanes[w] = lane
	}
	return clampConf(sumLanes(&p.lanes, words) - weightBias*nf)
}

// b2u converts a bool to its 0/1 raw feature value.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// historyPC returns the w-th most recent observed PC (w >= 1) for a core,
// as a pc feature with W=w reads it.
func (p *Predictor) historyPC(core, w int) uint64 {
	return p.hist[core][(p.heads[core]+uint32(w)-1)&histRingMask]
}

// Confidence computes the prediction for an access without updating any
// state. Higher values mean the block is more confidently predicted dead.
func (p *Predictor) Confidence(a cache.Access, set int, insert bool) int {
	return p.predict(a, set, insert)
}

// observe updates per-set and per-core state after an access has been
// predicted and (if sampled) trained. resident reports whether the block
// is in the cache after the access (false for bypasses).
func (p *Predictor) observe(a cache.Access, set int, miss, resident bool) {
	m := &p.setMeta[set]
	if miss {
		m.flags |= setLastMiss
	} else {
		m.flags &^= setLastMiss
	}
	if resident {
		m.lastBlock = a.Block()
		m.flags |= setHaveBlock
	}
	core := a.Core
	if core < 0 || core >= len(p.hist) {
		core = 0
	}
	head := (p.heads[core] + histRingLen - 1) & histRingMask
	p.hist[core][head] = accessPC(a)
	p.heads[core] = head
}

// bump adjusts one weight with saturating 6-bit arithmetic.
func (p *Predictor) bump(feature int, index uint16, up bool) {
	w := &p.tables[feature][index]
	if up {
		if *w < WeightMax {
			*w++
		}
	} else if *w > WeightMin {
		*w--
	}
}

func clampConf(v int) int {
	if v < ConfMin {
		return ConfMin
	}
	if v > ConfMax {
		return ConfMax
	}
	return v
}

// ForEachWeight visits every weight, in feature order then index order.
// The verification layer uses it to compare the production tables against
// a lockstep reference and to check saturation bounds.
func (p *Predictor) ForEachWeight(fn func(feature, index int, w int8)) {
	for i, t := range p.tables {
		for ix, w := range t {
			fn(i, ix, w)
		}
	}
}

// checkWeights verifies every weight is within the 6-bit saturation range.
func (p *Predictor) checkWeights() error {
	for i, t := range p.tables {
		for ix, w := range t {
			if w < WeightMin || w > WeightMax {
				return fmt.Errorf("core: weight table %d index %d holds %d outside [%d,%d]",
					i, ix, w, WeightMin, WeightMax)
			}
		}
	}
	return nil
}

// String summarizes the predictor configuration.
func (p *Predictor) String() string {
	return fmt.Sprintf("multiperspective(%d features, %d index bits)", len(p.features), p.TotalIndexBits())
}

// SizeBits estimates the predictor's storage in bits, mirroring the area
// accounting of Section 4.4: the weight tables plus per-set lastmiss bits.
// Sampler storage is accounted by the sampler.
func (p *Predictor) SizeBits() int {
	bits := 0
	for _, t := range p.tables {
		bits += len(t) * 6
	}
	bits += len(p.setMeta) // one lastmiss bit per set
	return bits
}
