package core

import (
	"testing"
	"testing/quick"

	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"pc(10,1,53,10,0)",
		"pc(17,6,20,0,1)",
		"address(11,8,19,0)",
		"offset(15,1,6,1)",
		"bias(16,0)",
		"bias(6,1)",
		"burst(6,0)",
		"insert(17,1)",
		"lastmiss(9,0)",
	}
	for _, s := range specs {
		f, err := ParseFeature(s)
		if err != nil {
			t.Fatalf("ParseFeature(%q): %v", s, err)
		}
		if got := f.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "pc", "pc()", "pc(1,2,3)", "nosuch(1,0)", "pc(1,2,3,4,5,6)",
		"pc(0,1,2,3,0)",      // A below MinA
		"pc(99,1,2,3,0)",     // A above MaxA
		"pc(5,9,2,3,0)",      // B > E
		"pc(5,1,2,99,0)",     // W too deep
		"address(5,70,80,0)", // bits out of range
		"bias(x,0)",
	}
	for _, s := range bad {
		if _, err := ParseFeature(s); err == nil {
			t.Errorf("ParseFeature(%q) succeeded", s)
		}
	}
}

func TestIndexBitsMatchPaperAccounting(t *testing.T) {
	cases := []struct {
		spec string
		bits int
	}{
		{"pc(10,1,53,10,0)", 8},   // pc features: 256 weights
		{"address(11,8,19,0)", 8}, // address features: 256 weights
		{"bias(16,0)", 0},         // global bias: 1 weight
		{"bias(6,1)", 8},          // PC-indexed bias: 256 weights
		{"burst(6,0)", 1},         // single-bit: 2 weights
		{"insert(16,1)", 8},       // XORed single-bit: 256 weights
		{"lastmiss(9,0)", 1},      // single-bit: 2 weights
		{"offset(10,0,6,1)", 6},   // offset: at most 64 weights
		{"offset(15,3,7,0)", 3},   // bits 3..5 of a 6-bit offset
	}
	for _, c := range cases {
		f, err := ParseFeature(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.IndexBits(); got != c.bits {
			t.Errorf("%s: IndexBits = %d, want %d", c.spec, got, c.bits)
		}
		if f.TableSize() != 1<<c.bits {
			t.Errorf("%s: TableSize = %d", c.spec, f.TableSize())
		}
	}
}

func TestPaperFeatureSetsParseAndValidate(t *testing.T) {
	for name, set := range map[string][]Feature{
		"1a": SingleThreadSetA(),
		"1b": SingleThreadSetB(),
		"2":  MultiProgrammedSet(),
	} {
		if len(set) != DefaultFeatureCount {
			t.Errorf("set %s has %d features, want 16", name, len(set))
		}
		for _, f := range set {
			if err := f.Validate(); err != nil {
				t.Errorf("set %s: %v", name, err)
			}
		}
	}
	// Known properties from Section 5.4: the multi-programmed set has four
	// address features and no insert features.
	addr, ins := 0, 0
	for _, f := range MultiProgrammedSet() {
		switch f.Kind {
		case KindAddress:
			addr++
		case KindInsert:
			ins++
		}
	}
	if addr != 4 || ins != 0 {
		t.Errorf("Table 2: %d address, %d insert features (want 4, 0)", addr, ins)
	}
	// pc(17,6,20,0,1) appears in both single-thread sets (Section 5.4).
	shared := "pc(17,6,20,0,1)"
	for name, set := range map[string][]Feature{"1a": SingleThreadSetA(), "1b": SingleThreadSetB()} {
		found := false
		for _, f := range set {
			if f.String() == shared {
				found = true
			}
		}
		if !found {
			t.Errorf("set %s missing shared feature %s", name, shared)
		}
	}
}

func TestIndexDependsOnDeclaredInputsOnly(t *testing.T) {
	base := Input{PC: 0x4004, Addr: 0xdeadbeef, Insert: true, Burst: false, LastMiss: true}
	for i := range base.History {
		base.History[i] = uint64(0x1000 + i*4)
	}

	cases := []struct {
		spec    string
		mutate  func(*Input)
		changes bool
	}{
		{"burst(6,0)", func(in *Input) { in.Burst = true }, true},
		{"burst(6,0)", func(in *Input) { in.Insert = false }, false},
		{"insert(16,0)", func(in *Input) { in.Insert = false }, true},
		{"insert(16,0)", func(in *Input) { in.LastMiss = false }, false},
		{"lastmiss(9,0)", func(in *Input) { in.LastMiss = false }, true},
		{"bias(16,0)", func(in *Input) { in.PC = 0x9999; in.Addr = 1 }, false},
		{"bias(6,1)", func(in *Input) { in.PC = 0x9999 }, true},
		{"offset(15,0,5,0)", func(in *Input) { in.Addr ^= 0x7 }, true},
		{"offset(15,0,5,0)", func(in *Input) { in.Addr ^= 0x1000 }, false}, // beyond offset bits
		{"address(11,8,19,0)", func(in *Input) { in.Addr ^= 1 << 9 }, true},
		{"address(11,8,19,0)", func(in *Input) { in.Addr ^= 1 << 30 }, false}, // outside B..E
	}
	for _, c := range cases {
		f, err := ParseFeature(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		in := base
		before := f.Index(&in)
		c.mutate(&in)
		after := f.Index(&in)
		if (before != after) != c.changes {
			t.Errorf("%s: index change=%v, want %v", c.spec, before != after, c.changes)
		}
	}
}

func TestPCFeatureSelectsHistoryDepth(t *testing.T) {
	var in Input
	for i := range in.History {
		in.History[i] = uint64(i) << 8
	}
	f := Feature{Kind: KindPC, A: 5, B: 0, E: 20, W: 3}
	idx := f.Index(&in)
	in.History[3] ^= 0xff00 // within bits 0..20 of History[3]
	if f.Index(&in) == idx {
		t.Fatal("changing History[W] did not change the index")
	}
	idx = f.Index(&in)
	in.History[4] ^= 0xff00
	if f.Index(&in) != idx {
		t.Fatal("changing History[W+1] changed a W-indexed feature")
	}
}

func TestIndexAlwaysInTable(t *testing.T) {
	rng := xrand.New(99)
	if err := quick.Check(func(pc, addr, h uint64, ins, burst, lm bool) bool {
		in := Input{PC: pc, Addr: addr, Insert: ins, Burst: burst, LastMiss: lm}
		for i := range in.History {
			in.History[i] = h * uint64(i+1)
		}
		// Try several random features per input.
		for k := 0; k < 20; k++ {
			f := Feature{
				Kind: Kind(rng.Intn(7)),
				A:    1 + rng.Intn(MaxA),
				B:    rng.Intn(30),
				W:    rng.Intn(MaxW + 1),
				X:    rng.Bool(),
			}
			f.E = f.B + rng.Intn(30)
			if int(f.Index(&in)) >= f.TableSize() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldTo(t *testing.T) {
	if got := foldTo(0, 8); got != 0 {
		t.Fatalf("foldTo(0,8) = %d", got)
	}
	if got := foldTo(0xab, 8); got != 0xab {
		t.Fatalf("foldTo(0xab,8) = %#x", got)
	}
	// Folding must incorporate high bits.
	if foldTo(0xab, 8) == foldTo(0xab|1<<40, 8) {
		t.Fatal("fold ignored high bits")
	}
	if got := foldTo(0xffff, 0); got != 0 {
		t.Fatalf("foldTo(x,0) = %d", got)
	}
	// Result always fits in n bits.
	for v := uint64(1); v != 0; v <<= 3 {
		for n := 1; n <= 8; n++ {
			if got := foldTo(v, n); got >= 1<<uint(n) {
				t.Fatalf("foldTo(%#x,%d) = %#x overflows", v, n, got)
			}
		}
	}
}

func TestExtractBits(t *testing.T) {
	if got := extractBits(0xff00, 8, 15); got != 0xff {
		t.Fatalf("extractBits(0xff00,8,15) = %#x", got)
	}
	if got := extractBits(0xff00, 0, 7); got != 0 {
		t.Fatalf("extractBits low = %#x", got)
	}
	if got := extractBits(^uint64(0), 0, 63); got != ^uint64(0) {
		t.Fatalf("full width = %#x", got)
	}
	if got := extractBits(1, 64, 70); got != 0 {
		t.Fatalf("beyond word = %#x", got)
	}
}

func TestDeadBoundary(t *testing.T) {
	f := Feature{Kind: KindBias, A: 5}
	if f.dead(4) {
		t.Fatal("position A-1 considered dead")
	}
	if !f.dead(5) {
		t.Fatal("position A not considered dead")
	}
}

func TestOffsetUsesBlockOffsetOnly(t *testing.T) {
	f := Feature{Kind: KindOffset, A: 5, B: 0, E: 5}
	in := Input{Addr: 0x38}
	i1 := f.Index(&in)
	in.Addr = 0x38 + trace.BlockSize // same offset, next block
	if f.Index(&in) != i1 {
		t.Fatal("offset feature leaked block address bits")
	}
}
