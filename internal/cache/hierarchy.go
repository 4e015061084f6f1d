package cache

import (
	"mpppb/internal/trace"
)

// Prefetcher is the hook the hierarchy uses to drive a hardware prefetcher.
// It is trained on L1 miss addresses (the paper's stream prefetcher "starts
// a stream on a L1 cache miss") and returns the byte addresses of blocks to
// prefetch into L2 and the LLC.
type Prefetcher interface {
	// OnL1Miss observes a demand L1 miss and returns prefetch addresses.
	// The returned slice is only valid until the next call.
	OnL1Miss(pc, addr uint64) []uint64
}

// Latencies holds the access latencies of the memory hierarchy, in cycles.
// A demand access costs the latency of the first level it hits in, plus
// any remaining in-flight time when the block was installed by a prefetch
// that has not completed yet.
type Latencies struct {
	L1  int
	L2  int
	LLC int
	Mem int
}

// DefaultLatencies mirrors the paper's methodology: 200 cycles to DRAM
// beyond the LLC, with conventional L1/L2/LLC hit latencies.
func DefaultLatencies() Latencies {
	return Latencies{L1: 4, L2: 16, LLC: 40, Mem: 240}
}

// Hierarchy is one core's path through the memory system: private L1 data
// cache and unified L2, plus a (possibly shared) last-level cache. L1 and L2
// always use LRU; the experiments vary only the LLC policy, as in the paper.
//
// Prefetches are modelled asynchronously: they consume no latency on the
// triggering access, but the prefetched block records the cycle its data
// arrives, and a demand access that catches up with an in-flight prefetch
// pays the remaining latency. This is what keeps replacement policy
// relevant for regular access patterns despite the prefetcher.
//
// The Hierarchy owns data-arrival cycles: a Cache fills a frame with
// ready-at 0, and Demand stamps every fill it does not bypass with
// SetReadyAt. The cycle passed to Demand reaches nothing else; policies
// never see it.
type Hierarchy struct {
	Core int
	L1   *Cache
	L2   *Cache
	LLC  *Cache
	Pf   Prefetcher
	Lat  Latencies

	// MemWritebacks counts dirty evictions that left the LLC (or missed
	// in a lower level on their writeback path) toward memory.
	MemWritebacks uint64
	// PrefetchesIssued counts prefetch requests sent below L1.
	PrefetchesIssued uint64
	// LatePrefetchCycles accumulates the demand stall cycles spent waiting
	// on in-flight prefetches.
	LatePrefetchCycles uint64
}

// hitLatency combines a level's hit latency with an in-flight fill: a
// demand that catches up with a pending prefetch merges with it and waits
// for the remaining transfer time (an MSHR merge), rather than paying both.
func (h *Hierarchy) hitLatency(levelLat int, now, readyAt uint64) int {
	if readyAt > now {
		if remaining := int(readyAt - now); remaining > levelLat {
			h.LatePrefetchCycles += uint64(remaining - levelLat)
			return remaining
		}
	}
	return levelLat
}

// Demand performs a demand load or store issued at cycle now and returns
// its latency in cycles.
func (h *Hierarchy) Demand(pc, addr uint64, isWrite bool, now uint64) int {
	typ := trace.Load
	if isWrite {
		typ = trace.Store
	}
	a := Access{PC: pc, Addr: addr, Type: typ, Core: h.Core}

	var r1 Result
	h.L1.access(a, &r1)
	if r1.Hit {
		return h.hitLatency(h.Lat.L1, now, r1.ReadyAt)
	}
	// L1 miss: train the prefetcher before going below, so the prefetch
	// stream mirrors the demand-miss stream the paper's prefetcher sees.
	var prefetches []uint64
	if h.Pf != nil {
		prefetches = h.Pf.OnL1Miss(pc, addr)
	}

	lat := h.accessBelowL1(a, now)

	// The L1 fill completes when the data arrives.
	h.L1.SetReadyAt(r1.Set, r1.Way, now+uint64(lat))

	// L1 dirty victim goes to L2 (update-if-present; see Access docs).
	if r1.EvictedValid && r1.EvictedDirty {
		h.writeback(h.L2, r1.EvictedAddr)
	}

	for _, pa := range prefetches {
		h.prefetch(pa, now)
	}
	return lat
}

// accessBelowL1 services an L1 miss at cycle now from L2, the LLC, or
// memory and returns the access latency.
func (h *Hierarchy) accessBelowL1(a Access, now uint64) int {
	var r2 Result
	h.L2.access(a, &r2)
	if r2.Hit {
		return h.hitLatency(h.Lat.L2, now, r2.ReadyAt)
	}
	var lat int
	var r3 Result
	h.LLC.access(a, &r3)
	if r3.Hit {
		lat = h.hitLatency(h.Lat.LLC, now, r3.ReadyAt)
	} else {
		lat = h.Lat.Mem
		if !r3.Bypassed {
			h.LLC.SetReadyAt(r3.Set, r3.Way, now+uint64(lat))
		}
		if r3.EvictedValid && r3.EvictedDirty {
			h.MemWritebacks++
		}
	}
	if !r2.Bypassed {
		h.L2.SetReadyAt(r2.Set, r2.Way, now+uint64(lat))
	}
	if r2.EvictedValid && r2.EvictedDirty {
		h.writeback(h.LLC, r2.EvictedAddr)
	}
	return lat
}

// prefetch installs addr into L2 and (on L2 miss) the LLC, carrying the
// reserved prefetch PC. Prefetches add no latency to the triggering access
// but record when their data arrives.
func (h *Hierarchy) prefetch(addr uint64, now uint64) {
	h.PrefetchesIssued++
	a := Access{PC: trace.PrefetchPC, Addr: addr, Type: trace.Prefetch, Core: h.Core}
	var r2 Result
	h.L2.access(a, &r2)
	if r2.Hit {
		return
	}
	ready := now + uint64(h.Lat.Mem)
	var r3 Result
	h.LLC.access(a, &r3)
	if r3.Hit {
		arrival := now + uint64(h.Lat.LLC)
		if r3.ReadyAt > arrival {
			arrival = r3.ReadyAt
		}
		ready = arrival
	} else {
		if !r3.Bypassed {
			h.LLC.SetReadyAt(r3.Set, r3.Way, ready)
		}
		if r3.EvictedValid && r3.EvictedDirty {
			h.MemWritebacks++
		}
	}
	if !r2.Bypassed {
		h.L2.SetReadyAt(r2.Set, r2.Way, ready)
	}
	if r2.EvictedValid && r2.EvictedDirty {
		h.writeback(h.LLC, r2.EvictedAddr)
	}
}

// writeback sends a dirty victim to the given lower-level cache; if it
// misses there it continues to memory.
func (h *Hierarchy) writeback(c *Cache, blockAddr uint64) {
	a := Access{Addr: blockAddr << trace.BlockBits, Type: trace.Writeback, Core: h.Core}
	var r Result
	c.access(a, &r)
	if !r.Hit {
		h.MemWritebacks++
	}
}

// ResetStats clears statistics on all levels (the LLC may be shared; callers
// coordinating multiple hierarchies should reset it once).
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.MemWritebacks = 0
	h.PrefetchesIssued = 0
	h.LatePrefetchCycles = 0
}
