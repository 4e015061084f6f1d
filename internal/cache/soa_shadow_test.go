// The SoA frame layout keeps per-frame fields in parallel slices with a
// tag-lane sentinel for invalid frames (see cache.go). This file checks
// that layout against a deliberately naive array-of-structs shadow: both
// models replay the same randomized access/invalidate sequences under
// their own deterministic policy instances, and every observable frame
// field must agree after every operation. A bookkeeping slip in the split
// storage — a stale tag after invalidate, a flags byte out of sync with
// the address lane, a readyAt written to the wrong row — diverges the
// shadow immediately. The readyAt lane follows the data-arrival contract:
// a fill stamps 0 and only SetReadyAt, the Hierarchy's stamp, moves it.
package cache_test

import (
	"math/rand"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// shadowFrame is the naive AoS frame: one struct per way, unpacked bools.
type shadowFrame struct {
	addr       uint64
	readyAt    uint64
	valid      bool
	dirty      bool
	prefetched bool
}

// shadowCache is an array-of-structs reference model of cache.Cache's
// state evolution, driving its own policy instance through the same
// hook protocol.
type shadowCache struct {
	sets, ways int
	frames     [][]shadowFrame
	pol        cache.ReplacementPolicy
}

func newShadow(sets, ways int, pol cache.ReplacementPolicy) *shadowCache {
	s := &shadowCache{sets: sets, ways: ways, pol: pol}
	s.frames = make([][]shadowFrame, sets)
	for i := range s.frames {
		s.frames[i] = make([]shadowFrame, ways)
	}
	return s
}

// access applies a to the shadow and returns the hit/ready-at outcome
// cache.Cache must report for it.
func (s *shadowCache) access(a cache.Access) (hit bool, readyAt uint64) {
	block := a.Block()
	set := int(block) & (s.sets - 1)
	fr := s.frames[set]
	for w := range fr {
		if fr[w].valid && fr[w].addr == block {
			if a.IsDemand() {
				fr[w].prefetched = false
			}
			if a.Type == trace.Store || a.Type == trace.Writeback {
				fr[w].dirty = true
			}
			s.pol.Hit(set, w, a)
			return true, fr[w].readyAt
		}
	}
	if a.Type == trace.Writeback {
		return false, 0
	}
	way := -1
	for w := range fr {
		if !fr[w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		victim, bypass := s.pol.Victim(set, a)
		if bypass {
			return false, 0
		}
		way = victim
		s.pol.Evict(set, way, fr[way].addr)
	}
	fr[way] = shadowFrame{
		addr:       block,
		valid:      true,
		dirty:      a.Type == trace.Store,
		prefetched: a.Type == trace.Prefetch,
	}
	s.pol.Fill(set, way, a)
	return false, 0
}

func (s *shadowCache) invalidate(block uint64) {
	set := int(block) & (s.sets - 1)
	fr := s.frames[set]
	for w := range fr {
		if fr[w].valid && fr[w].addr == block {
			s.pol.Evict(set, w, fr[w].addr)
			fr[w] = shadowFrame{}
			return
		}
	}
}

// compare checks every frame of every set against the production cache's
// accessors.
func (s *shadowCache) compare(t *testing.T, c *cache.Cache, step int) {
	t.Helper()
	for set := 0; set < s.sets; set++ {
		for w := 0; w < s.ways; w++ {
			sf := s.frames[set][w]
			addr, valid := c.BlockAddrAt(set, w)
			if valid != sf.valid {
				t.Fatalf("step %d: set %d way %d valid=%v, shadow %v\n%s", step, set, w, valid, sf.valid, c.DumpSet(set))
			}
			if !valid {
				continue
			}
			if addr != sf.addr {
				t.Fatalf("step %d: set %d way %d addr %#x, shadow %#x\n%s", step, set, w, addr, sf.addr, c.DumpSet(set))
			}
			if got := c.IsPrefetchedAt(set, w); got != sf.prefetched {
				t.Fatalf("step %d: set %d way %d prefetched=%v, shadow %v", step, set, w, got, sf.prefetched)
			}
			if got := c.ReadyAt(set, w); got != sf.readyAt {
				t.Fatalf("step %d: set %d way %d readyAt=%d, shadow %d", step, set, w, got, sf.readyAt)
			}
		}
	}
}

// TestSoAMatchesAoSShadow replays randomized access sequences — all four
// access types, a skewed address distribution that forces both conflict
// evictions and invalid-frame fills, and interleaved invalidations —
// through the production SoA cache and the AoS shadow, comparing complete
// frame state as it goes. Dirty bits are compared through eviction results
// (Invalidate reports dirtiness) rather than a direct accessor, via the
// invalidation steps. Ready-at stamps arrive through random SetReadyAt
// calls on valid frames, as the Hierarchy makes them, and every hit must
// report the stamp of the frame it hit.
func TestSoAMatchesAoSShadow(t *testing.T) {
	const sets, ways = 16, 4
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cache.New("soa", sets, ways, policy.NewLRU(sets, ways))
		sh := newShadow(sets, ways, policy.NewLRU(sets, ways))

		types := []trace.AccessType{
			trace.Load, trace.Load, trace.Load, trace.Store, trace.Prefetch, trace.Writeback,
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				// Invalidate a random block from the reachable footprint;
				// dirtiness must agree between the two models.
				block := uint64(rng.Intn(sets * ways * 3))
				present, dirty := c.Invalidate(block)
				wantPresent, wantDirty := false, false
				set := int(block) & (sets - 1)
				for w := 0; w < ways; w++ {
					if f := sh.frames[set][w]; f.valid && f.addr == block {
						wantPresent, wantDirty = true, f.dirty
					}
				}
				if present != wantPresent || dirty != wantDirty {
					t.Fatalf("seed %d step %d: Invalidate(%#x) = (%v,%v), shadow (%v,%v)",
						seed, step, block, present, dirty, wantPresent, wantDirty)
				}
				sh.invalidate(block)
			case r <= 3:
				// Stamp a random frame's data arrival, as the Hierarchy does
				// after each fill; invalid frames keep their 0.
				set, w := rng.Intn(sets), rng.Intn(ways)
				if _, valid := c.BlockAddrAt(set, w); valid {
					cycle := uint64(step) + uint64(rng.Intn(500))
					c.SetReadyAt(set, w, cycle)
					sh.frames[set][w].readyAt = cycle
				}
			default:
				a := cache.Access{
					PC:   0x400000 + uint64(rng.Intn(64))*4,
					Addr: uint64(rng.Intn(sets*ways*3))*trace.BlockSize + uint64(rng.Intn(trace.BlockSize)),
					Type: types[rng.Intn(len(types))],
				}
				r := c.Access(a)
				if hit, readyAt := sh.access(a); r.Hit != hit || r.ReadyAt != readyAt {
					t.Fatalf("seed %d step %d: Access = (hit %v, readyAt %d), shadow (%v, %d)",
						seed, step, r.Hit, r.ReadyAt, hit, readyAt)
				}
			}
			if step%7 == 0 {
				sh.compare(t, c, step)
			}
		}
		sh.compare(t, c, 4000)
	}
}
