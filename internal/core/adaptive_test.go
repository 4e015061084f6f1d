package core

import (
	"strings"
	"testing"
)

func TestThresholdSetStringRoundTrip(t *testing.T) {
	orig := ThresholdSet{
		Tau0: 48, Tau1: -98, Tau2: -148, Tau3: -180, Tau4: 112,
		Pi: [3]int{12, 8, 4}, PromotePos: 1,
	}
	got, err := ParseThresholdSet(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip: %+v != %+v (spec %q)", got, orig, orig.String())
	}
}

func TestParseThresholdSetErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"1,2,3",                     // too few fields
		"1,2,3,4,5,6,7,8,9,10",      // too many
		"1,2,x,4,5,6,7,8,9",         // non-integer
		"1.5,2,3,4,5,6,7,8,9",       // float
		"1,2,3,4,5,6,7,8,9;1,2,3,4", // candidate separator in a single set
	} {
		if _, err := ParseThresholdSet(spec); err == nil {
			t.Errorf("ParseThresholdSet(%q) did not fail", spec)
		}
	}
}

func TestParseDuelCandidates(t *testing.T) {
	a := SingleThreadParams().Thresholds()
	b := MultiCoreParams().Thresholds()
	cands, err := ParseDuelCandidates(a.String() + "; " + b.String() + " ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0] != a || cands[1] != b {
		t.Fatalf("parsed %v, want [%v %v]", cands, a, b)
	}
	if _, err := ParseDuelCandidates(" ; "); err == nil {
		t.Fatal("empty duel spec did not fail")
	}
}

// TestDefaultDuelCandidatesValid: the default lineup for both machine
// configurations must start at the params' own thresholds and satisfy
// every candidate invariant in the host position space (the far
// candidate maps positions across the MDPP/SRRIP spaces, an easy place
// to produce an out-of-range value).
func TestDefaultDuelCandidatesValid(t *testing.T) {
	for _, p := range []Params{SingleThreadParams(), MultiCoreParams()} {
		cands := DefaultDuelCandidates(p)
		if len(cands) < 2 {
			t.Fatalf("%v: only %d candidates", p.Default, len(cands))
		}
		if cands[0] != p.Thresholds() {
			t.Fatalf("%v: candidate 0 %v is not the params' own thresholds %v", p.Default, cands[0], p.Thresholds())
		}
		maxPos := maxPlacementPosition(p.Default)
		for i, c := range cands {
			if err := c.validate(maxPos); err != nil {
				t.Fatalf("%v: candidate %d invalid: %v", p.Default, i, err)
			}
		}
	}
}

// TestParamsValidate exercises each documented invariant separately.
func TestParamsValidate(t *testing.T) {
	if err := SingleThreadParams().Validate(); err != nil {
		t.Fatalf("default single-thread params invalid: %v", err)
	}
	if err := AdaptiveMultiCoreParams().Validate(); err != nil {
		t.Fatalf("default adaptive params invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"empty features", func(p *Params) { p.Features = nil }, "empty feature set"},
		{"tau1 <= tau2", func(p *Params) { p.Tau1 = p.Tau2 }, "not descending"},
		{"tau2 <= tau3", func(p *Params) { p.Tau2 = p.Tau3 - 1 }, "not descending"},
		{"pi out of range", func(p *Params) { p.Pi[1] = 16 }, "placement position"},
		{"negative pi", func(p *Params) { p.Pi[0] = -1 }, "placement position"},
		{"promote out of range", func(p *Params) { p.PromotePos = 99 }, "promotion position"},
		{"sampler sets", func(p *Params) { p.SamplerSets = 0 }, "SamplerSets"},
		{"theta", func(p *Params) { p.Theta = 0 }, "Theta"},
		{"cores", func(p *Params) { p.Cores = 0 }, "Cores"},
		{"one duel candidate", func(p *Params) {
			p.Duel = &DuelConfig{Candidates: []ThresholdSet{p.Thresholds()}}
		}, "at least 2 candidates"},
		{"invalid duel candidate", func(p *Params) {
			bad := p.Thresholds()
			bad.Tau3 = bad.Tau1 + 1
			p.Duel = &DuelConfig{Candidates: []ThresholdSet{p.Thresholds(), bad}}
		}, "duel candidate 1"},
		{"duel pselmax", func(p *Params) { p.Duel = &DuelConfig{PselMax: -1} }, "PselMax"},
	}
	for _, c := range cases {
		p := SingleThreadParams()
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate did not fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestNewAdvisorPanicsOnInvalidParams: construction is the enforcement
// point — a mis-ordered config from a search must fail loudly, not make
// placement tiers silently unreachable.
func TestNewAdvisorPanicsOnInvalidParams(t *testing.T) {
	p := SingleThreadParams()
	p.Tau2 = p.Tau1 + 5 // breaks Tau1 > Tau2
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdvisor with non-descending thresholds did not panic")
		}
	}()
	NewAdvisor(64, p)
}

// duelTestParams builds a 2-candidate duel with a tiny window so tests
// can step window boundaries precisely: one group, so exactly one leader
// set per candidate (sets 0 and 1 under DuelLeaders' layout).
func duelTestParams(window uint64, pselMax int) Params {
	p := SingleThreadParams()
	alt := p.Thresholds()
	alt.Tau1 += 8
	alt.Tau4 += 8
	p.Duel = &DuelConfig{
		Candidates: []ThresholdSet{p.Thresholds(), alt},
		Groups:     1,
		Window:     window,
		PselMax:    pselMax,
	}
	return p
}

func TestDuelWindowPselAndSwitch(t *testing.T) {
	v := NewAdvisor(64, duelTestParams(4, 2))
	d := v.duel
	lead := make([]int, 2)
	for c := range lead {
		lead[c] = -1
	}
	for s := 0; s < 64; s++ {
		if k := v.DuelLeaderKind(s); k >= 0 {
			lead[k] = s
		}
	}
	if lead[0] < 0 || lead[1] < 0 {
		t.Fatalf("missing leader sets: %v", lead)
	}

	// The incumbent opens with full hysteresis: a lucky first window must
	// not be enough to migrate the followers.
	if snap, _ := v.DuelSnapshot(); snap.Psel != 2 {
		t.Fatalf("duel opened with psel %d, want pselMax (2)", snap.Psel)
	}

	// Candidate 1's leader misses fill the window: candidate 0 (fewer
	// misses) is the incumbent and wins, charging PSEL toward pselMax —
	// and never past it.
	for w := 0; w < 5; w++ {
		for i := 0; i < 4; i++ {
			d.vote(lead[1])
		}
	}
	snap, on := v.DuelSnapshot()
	if !on {
		t.Fatal("duel not active")
	}
	if snap.Winner != 0 || snap.Psel != 2 || snap.Switches != 0 {
		t.Fatalf("after incumbent wins: %+v, want winner 0, psel saturated at 2", snap)
	}
	if snap.Events != 0 || snap.Misses[0] != 0 || snap.Misses[1] != 0 {
		t.Fatalf("window did not reset: %+v", snap)
	}

	// Now candidate 0's leaders miss: the challenger must drain PSEL
	// (2 windows) before the switch lands on the third.
	for w := 0; w < 2; w++ {
		for i := 0; i < 4; i++ {
			d.vote(lead[0])
		}
		snap, _ = v.DuelSnapshot()
		if snap.Winner != 0 {
			t.Fatalf("switched with PSEL hysteresis remaining: %+v", snap)
		}
	}
	for i := 0; i < 4; i++ {
		d.vote(lead[0])
	}
	snap, _ = v.DuelSnapshot()
	if snap.Winner != 1 || snap.Switches != 1 || snap.Psel != 0 {
		t.Fatalf("challenger did not take over: %+v", snap)
	}

	// Follower sets read the new winner's thresholds; leaders keep their own.
	follower := -1
	for s := 0; s < 64; s++ {
		if v.DuelLeaderKind(s) == -1 {
			follower = s
			break
		}
	}
	if got := v.thresholdsFor(follower); *got != d.cands[1] {
		t.Fatalf("follower reads %v, want winner candidate 1 %v", *got, d.cands[1])
	}
	if got := v.thresholdsFor(lead[0]); *got != d.cands[0] {
		t.Fatalf("leader 0 reads %v, want its own candidate %v", *got, d.cands[0])
	}
}

// TestDuelVoteIgnoresFollowers: follower misses must not advance the
// window — the duel samples only leader behavior.
func TestDuelVoteIgnoresFollowers(t *testing.T) {
	v := NewAdvisor(64, duelTestParams(2, 1))
	follower := -1
	for s := 0; s < 64; s++ {
		if v.DuelLeaderKind(s) == -1 {
			follower = s
			break
		}
	}
	for i := 0; i < 100; i++ {
		v.duelVote(follower)
	}
	snap, _ := v.DuelSnapshot()
	if snap.Events != 0 {
		t.Fatalf("follower votes advanced the window: %+v", snap)
	}
}

func TestAdaptiveName(t *testing.T) {
	m := NewMPPPB(64, 16, AdaptiveSingleThreadParams())
	if got := m.Name(); got != "mpppb-mdpp-adaptive" {
		t.Fatalf("Name() = %q", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
