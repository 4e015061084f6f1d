package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/predictor"
)

func init() {
	lruFactory = func(sets, ways int) cache.ReplacementPolicy {
		return policy.NewLRU(sets, ways)
	}
}

// registry maps policy names to factories.
var registry = map[string]PolicyFactory{}

// Register adds a named policy factory. It panics on duplicates so
// conflicting registrations fail loudly at init time.
func Register(name string, pf PolicyFactory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sim: duplicate policy %q", name))
	}
	registry[name] = pf
}

// Policy looks up a registered policy factory by name.
func Policy(name string) (PolicyFactory, error) {
	pf, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown policy %q (have %v)", name, PolicyNames())
	}
	return pf, nil
}

// PolicyNames lists registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("lru", func(sets, ways int) cache.ReplacementPolicy { return policy.NewLRU(sets, ways) })
	Register("plru", func(sets, ways int) cache.ReplacementPolicy { return policy.NewTreePLRU(sets, ways) })
	Register("srrip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewSRRIP(sets, ways) })
	Register("drrip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewDRRIP(sets, ways, 1) })
	Register("mdpp", func(sets, ways int) cache.ReplacementPolicy { return policy.NewMDPP(sets, ways) })
	Register("random", func(sets, ways int) cache.ReplacementPolicy { return policy.NewRandom(ways, 1) })
	Register("bip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewBIP(sets, ways, 1) })
	Register("dip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewDIP(sets, ways, 1) })
	Register("dyn-mdpp", func(sets, ways int) cache.ReplacementPolicy { return policy.NewDynMDPP(sets, ways) })
	Register("sdbp", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewSDBP(sets, ways) })
	Register("perceptron", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewPerceptron(sets, ways) })
	Register("hawkeye", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewHawkeye(sets, ways) })
	Register("mpppb", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.SingleThreadParams())
	})
	Register("mpppb-srrip", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.MultiCoreParams())
	})
	Register("ship", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewSHiP(sets, ways) })
	// mpppb-adaptive duels threshold configurations online in sampled
	// leader sets (core/adaptive.go) instead of fixing them offline; the
	// -srrip variant runs the duel over the multi-core machine
	// configuration.
	Register("mpppb-adaptive", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, adaptiveParams(core.AdaptiveSingleThreadParams()))
	})
	Register("mpppb-adaptive-srrip", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, adaptiveParams(core.AdaptiveMultiCoreParams()))
	})
	// mpppb-srrip-1b runs the multi-core machine configuration with the
	// single-thread Table 1(b) features, the cross-set observation of
	// Section 6.4 ("this set of features ... provides reasonable
	// performance for the multi-programmed workloads").
	Register("mpppb-srrip-1b", func(sets, ways int) cache.ReplacementPolicy {
		p := core.MultiCoreParams()
		p.Features = core.SingleThreadSetB()
		return core.NewMPPPB(sets, ways, p)
	})
	// mpppb-srrip-table2 runs the paper's published multi-programmed
	// feature set (Table 2, with two OCR-normalized entries).
	Register("mpppb-srrip-table2", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.Table2Params())
	})
	Register("hybrid", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewHybrid(sets, ways, core.SingleThreadParams())
	})
	Register("hybrid-srrip", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewHybrid(sets, ways, core.MultiCoreParams())
	})
}

// duelCandidates, when non-nil, replaces the default candidate lineup of
// the mpppb-adaptive policies for this process.
var duelCandidates []core.ThresholdSet

// SetDuelCandidates overrides the threshold sets the mpppb-adaptive
// policies duel — the seam the cmd tools' -duel flag uses to feed
// mpppb-tune output (offline per-workload winners) into the online duel.
// Callers must include the candidate spec in any journal fingerprint,
// since it changes every adaptive cell value. nil restores the defaults.
func SetDuelCandidates(cands []core.ThresholdSet) { duelCandidates = cands }

func adaptiveParams(p core.Params) core.Params {
	if duelCandidates != nil {
		p.Duel.Candidates = duelCandidates
	}
	return p
}

// ConfidenceNames lists the predictors Confidence accepts.
func ConfidenceNames() []string { return []string{"sdbp", "perceptron", "mpppb"} }

// CheckNames returns an error naming the first of names that is not in
// valid and listing the valid ones, so a tool can refuse an unknown
// -policy or -predictor before it declares or journals a single cell.
// kind names the flag's subject ("policy", "predictor").
func CheckNames(kind string, names, valid []string) error {
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return fmt.Errorf("unknown %s %q (valid: %s)", kind, n, strings.Join(valid, " "))
		}
	}
	return nil
}

// Confidence looks up a ConfidenceFactory for the predictors whose
// confidences are comparable on an ROC curve (Section 6.3).
func Confidence(name string) (ConfidenceFactory, error) {
	switch name {
	case "sdbp":
		return func(sets, ways int) ConfidencePredictor { return predictor.NewSDBP(sets, ways) }, nil
	case "perceptron":
		return func(sets, ways int) ConfidencePredictor { return predictor.NewPerceptron(sets, ways) }, nil
	case "mpppb":
		return func(sets, ways int) ConfidencePredictor {
			return core.NewMPPPB(sets, ways, core.SingleThreadParams())
		}, nil
	default:
		return nil, fmt.Errorf("sim: %q does not expose comparable confidences (want sdbp, perceptron, or mpppb)", name)
	}
}
