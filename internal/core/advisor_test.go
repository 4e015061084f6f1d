package core

import (
	"reflect"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// testGen is a tiny deterministic access-pattern generator: a mix of a
// hot reused region, a streaming scan, and pointer-chase-like noise, with
// occasional stores, so hits, misses, bypasses, and promotions all occur.
type testGen struct{ state, i uint64 }

func newTestGen(seed uint64) *testGen { return &testGen{state: seed} }

func (g *testGen) next64() uint64 {
	g.state ^= g.state << 13
	g.state ^= g.state >> 7
	g.state ^= g.state << 17
	return g.state
}

func (g *testGen) Next(rec *trace.Record) {
	g.i++
	r := g.next64()
	switch r % 4 {
	case 0: // hot region, heavily reused
		rec.Addr = 0x10000 + (r>>8)%64*64
		rec.PC = 0x400100
	case 1: // streaming scan, never reused
		rec.Addr = 0x900000 + g.i*64
		rec.PC = 0x400200
	case 2: // medium working set
		rec.Addr = 0x40000 + (r>>8)%2048*64
		rec.PC = 0x400300 + (r>>20)%4*8
	default: // scattered noise
		rec.Addr = (r >> 4) & 0xffffff8
		rec.PC = 0x400400
	}
	rec.IsWrite = r%13 == 0
	rec.NonMem = uint16(r % 5)
}

// TestAdvisorMirrorsMPPPB drives an LLC under the inline MPPPB policy and
// mirrors every access outcome onto a standalone Advisor: hits become
// AdviseHit events, misses become AdviseMiss events with mayBypass set
// exactly when the cache consulted Victim (set full). The advisor must
// reproduce the inline policy's bypass decisions access-for-access and end
// with byte-identical predictor weights, sampler contents, decision
// counters and, in adaptive mode, duel state — the decoupling guarantee
// the serving layer relies on. A second default policy driven only by the
// advisor's advice must match MPPPB's recency state after every access,
// which pins how the hooks apply the advice to MDPP and SRRIP.
func TestAdvisorMirrorsMPPPB(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
		cores  int
		seed   uint64
	}{
		{"mdpp", SingleThreadParams(), 1, 12345},
		{"mdpp-adaptive", AdaptiveSingleThreadParams(), 1, 98765},
		{"srrip-4core", MultiCoreParams(), 4, 24680},
	} {
		t.Run(c.name, func(t *testing.T) {
			mirrorMPPPB(t, c.params, c.cores, c.seed)
		})
	}
}

func mirrorMPPPB(t *testing.T, params Params, cores int, seed uint64) {
	const sets, ways = 64, 4
	params.SamplerSets = 16

	m := NewMPPPB(sets, ways, params)
	llc := cache.New("llc", sets, ways, m)
	adv := NewAdvisor(sets, params)
	var refMDPP *policy.MDPP
	var refSRRIP *policy.SRRIP
	if params.Default == DefaultMDPP {
		refMDPP = policy.NewMDPP(sets, ways)
	} else {
		refSRRIP = policy.NewSRRIP(sets, ways)
	}
	// setPos applies an advised position to the reference default policy.
	setPos := func(set, way int, pos int8) {
		if refMDPP != nil {
			refMDPP.PlaceAt(set, way, int(pos))
		} else {
			refSRRIP.SetRRPV(set, way, uint8(pos))
		}
	}

	gen := newTestGen(seed)
	var rec trace.Record
	for i := 0; i < 200_000; i++ {
		gen.Next(&rec)
		a := cache.Access{PC: rec.PC, Addr: rec.Addr, Type: trace.Load, Core: i % cores}
		if rec.IsWrite {
			a.Type = trace.Store
		}
		set := llc.SetIndex(a.Block())
		if set != adv.SetFor(a.Block()) {
			t.Fatalf("set mapping diverged: cache %d, advisor %d", set, adv.SetFor(a.Block()))
		}
		r := llc.Access(a)
		if r.Hit {
			ad := adv.AdviseHit(a, set)
			if ad.Bypass {
				t.Fatalf("access %d: hit advice claims bypass", i)
			}
			if ad.Promote {
				setPos(set, r.Way, ad.Pos)
			}
		} else {
			// The cache consulted Victim (the bypass point) iff the set was
			// full: either the policy bypassed, or a valid block was evicted.
			mayBypass := r.Bypassed || r.EvictedValid
			ad := adv.AdviseMiss(a, set, mayBypass)
			if ad.Bypass != r.Bypassed {
				t.Fatalf("access %d: advisor bypass=%v, inline policy bypass=%v", i, ad.Bypass, r.Bypassed)
			}
			if !ad.Bypass {
				if r.EvictedValid {
					var w int
					if refMDPP != nil {
						w = refMDPP.VictimWay(set)
					} else {
						w, _ = refSRRIP.Victim(set, a)
					}
					if w != r.Way {
						t.Fatalf("access %d: reference victim way %d, inline %d", i, w, r.Way)
					}
				}
				setPos(set, r.Way, ad.Pos)
			}
		}
		if refMDPP != nil {
			if got, want := m.MDPP().Tree().Bits(set), refMDPP.Tree().Bits(set); got != want {
				t.Fatalf("access %d: set %d mdpp bits %#x, advice-driven %#x", i, set, got, want)
			}
		} else {
			for w := 0; w < ways; w++ {
				if got, want := m.SRRIP().RRPV(set, w), refSRRIP.RRPV(set, w); got != want {
					t.Fatalf("access %d: set %d way %d rrpv %d, advice-driven %d", i, set, w, got, want)
				}
			}
		}
	}

	if m.Bypasses == 0 || m.TrainEvents == 0 || m.NoPromotes == 0 {
		t.Fatalf("degenerate run: %v", m.Stats())
	}
	// In adaptive mode the duel state (winner, PSEL, window position,
	// per-candidate miss counts, switch count) pins the vote-ordering rule:
	// exactly one vote per non-writeback miss, before any threshold read.
	mSnap, mOn := m.DuelSnapshot()
	aSnap, _ := adv.DuelSnapshot()
	if !reflect.DeepEqual(mSnap, aSnap) {
		t.Fatalf("duel state diverged:\n  inline  %+v\n  advisor %+v", mSnap, aSnap)
	}
	if mOn != (params.Duel != nil) || mOn && mSnap.Events == 0 && mSnap.Switches == 0 && mSnap.Psel == 0 {
		t.Fatalf("duel active=%v for Duel=%v, or it never saw a leader miss: %+v", mOn, params.Duel, mSnap)
	}
	// Everything else — counters, every weight, every sampler entry, the
	// predictor's history and set metadata — must match as a whole.
	if m.Stats() != adv.Stats() {
		t.Fatalf("decision counters diverged:\n  inline  %v\n  advisor %v", m.Stats(), adv.Stats())
	}
	if !reflect.DeepEqual(*m.Advisor, *adv) {
		t.Fatal("inline policy's advisor state diverged from the standalone advisor's")
	}
	if err := adv.CheckState(); err != nil {
		t.Fatal(err)
	}
}

// TestAdvisorWritebacks pins the writeback contract: writeback events
// carry no prediction and must leave advisor state completely untouched,
// with misses advised as non-allocating (Bypass).
func TestAdvisorWritebacks(t *testing.T) {
	adv := NewAdvisor(64, SingleThreadParams())
	a := cache.Access{PC: 0x400100, Addr: 0xabc40, Type: trace.Writeback}
	if ad := adv.AdviseHit(a, 3); ad != (Advice{}) {
		t.Fatalf("writeback hit advice = %+v, want zero", ad)
	}
	if ad := adv.AdviseMiss(a, 3, true); !ad.Bypass || ad.Conf != 0 {
		t.Fatalf("writeback miss advice = %+v, want bare bypass", ad)
	}
	if s := adv.Stats(); s != (PolicyStats{}) {
		t.Fatalf("writebacks moved counters: %v", s)
	}
	nz := false
	adv.Predictor().ForEachWeight(func(_, _ int, w int8) { nz = nz || w != 0 })
	if nz {
		t.Fatal("writebacks trained weights")
	}
}

// TestAdvisorNoBypassWithFreeFrame pins the mayBypass contract: a fill
// into a set with an invalid frame must never be advised as a bypass,
// however dead the block looks.
func TestAdvisorNoBypassWithFreeFrame(t *testing.T) {
	params := SingleThreadParams()
	params.SamplerSets = 16
	adv := NewAdvisor(64, params)
	gen := newTestGen(99)
	var rec trace.Record
	for i := 0; i < 100_000; i++ {
		gen.Next(&rec)
		a := cache.Access{PC: rec.PC, Addr: rec.Addr, Type: trace.Load}
		if ad := adv.AdviseMiss(a, adv.SetFor(a.Block()), false); ad.Bypass {
			t.Fatalf("event %d: bypass advised with mayBypass=false", i)
		}
	}
	if adv.Bypasses != 0 {
		t.Fatalf("bypass counter = %d with mayBypass always false", adv.Bypasses)
	}
}
