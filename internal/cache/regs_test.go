package cache_test

// Guards for the per-access path: the request must stay register-resident
// and the per-level outcomes must stay in the hierarchy's own frames.

import (
	"reflect"
	"testing"
	"unsafe"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// TestAccessFitsInRegisters fails when cache.Access outgrows what the Go
// compiler keeps in registers: at most ssa.MaxStruct = 4 fields and at
// most 4*PtrSize = 32 bytes (cmd/compile/internal/ssa.CanSSA). Past
// either limit every policy hook and level hand-off spills the struct to
// memory and reloads it with wide loads that stall on store forwarding.
// See "Register-resident requests" in docs/PERFORMANCE.md before adding a
// field.
func TestAccessFitsInRegisters(t *testing.T) {
	typ := reflect.TypeOf(cache.Access{})
	if n := typ.NumField(); n > 4 {
		t.Errorf("cache.Access has %d fields, the register limit is 4", n)
	}
	if size := unsafe.Sizeof(cache.Access{}); size > 32 {
		t.Errorf("cache.Access is %d bytes, the register limit is 32", size)
	}
}

// stubPrefetcher requests the next two blocks after each L1 miss when on,
// reusing one buffer as the Prefetcher contract allows.
type stubPrefetcher struct {
	on  bool
	buf [2]uint64
}

func (p *stubPrefetcher) OnL1Miss(_, addr uint64) []uint64 {
	if !p.on {
		return nil
	}
	p.buf[0] = addr + trace.BlockSize
	p.buf[1] = addr + 2*trace.BlockSize
	return p.buf[:]
}

// TestDemandDoesNotAllocate drives a warmed hierarchy down each Demand
// path and requires zero heap allocations per access: the per-level
// Results live in Demand's frames and must never escape.
func TestDemandDoesNotAllocate(t *testing.T) {
	lru := func(name string, sets, ways int) *cache.Cache {
		return cache.New(name, sets, ways, policy.NewLRU(sets, ways))
	}
	pf := &stubPrefetcher{}
	h := &cache.Hierarchy{
		L1:  lru("l1", 8, 2),   // 1KB
		L2:  lru("l2", 32, 4),  // 8KB
		LLC: lru("llc", 64, 8), // 32KB
		Pf:  pf,
		Lat: cache.DefaultLatencies(),
	}
	// The clock advances past every in-flight fill between accesses, so
	// each path returns its level's plain latency.
	var now uint64
	demand := func(block uint64, isWrite bool) int {
		now += 1000
		return h.Demand(0x400, block<<trace.BlockBits, isWrite, now)
	}
	// fresh hands out blocks no level has seen.
	next := uint64(1 << 20)
	fresh := func() uint64 { next += 4; return next }
	var turn uint64

	paths := []struct {
		name   string
		prefOn bool
		access func() int
		want   int
		// moved reports a counter the path must advance.
		moved func() uint64
	}{
		{"l1-hit", false, func() int { return demand(5, false) }, h.Lat.L1,
			func() uint64 { return h.L1.Stats.DemandHits }},
		// Three blocks in L1 set 0 cycle through its two ways, missing
		// every time, while each keeps its own L2 set.
		{"l2-hit", false, func() int { turn++; return demand(8*(turn%3), false) }, h.Lat.L2,
			func() uint64 { return h.L2.Stats.DemandHits }},
		{"llc-miss-prefetch", true, func() int { return demand(fresh(), false) }, h.Lat.Mem,
			func() uint64 { return h.PrefetchesIssued }},
		// Streaming stores evict dirty blocks from L1 and L2.
		{"dirty-writeback", false, func() int { return demand(fresh(), true) }, h.Lat.Mem,
			func() uint64 { return h.L1.Stats.Writebacks + h.L2.Stats.Writebacks }},
	}
	for _, p := range paths {
		pf.on = p.prefOn
		for i := 0; i < 64; i++ {
			p.access()
		}
		if got := p.access(); got != p.want {
			t.Fatalf("%s: latency %d, want %d", p.name, got, p.want)
		}
		before := p.moved()
		if allocs := testing.AllocsPerRun(200, func() { p.access() }); allocs != 0 {
			t.Errorf("%s: %.2f allocations per Demand, want 0", p.name, allocs)
		}
		if p.moved() == before {
			t.Errorf("%s: path not exercised", p.name)
		}
	}
}
