package verify

import (
	"mpppb/internal/cache"
	"mpppb/internal/core"
)

// RefAdvisor is the reference reimplementation of core.Advisor: the same
// from-scratch prediction/training engine the cache oracle runs in
// lockstep with MPPPB, driven through the advice interface instead of
// cache hooks. The serving layer's -check mode shadows every production
// advisor with one of these, comparing advice event-for-event and full
// predictor/sampler state periodically.
type RefAdvisor struct {
	e *refEngine
}

// NewRefAdvisor builds a reference advisor modeling an LLC with the given
// number of sets, mirroring core.NewAdvisor's geometry.
func NewRefAdvisor(sets int, params core.Params) *RefAdvisor {
	return &RefAdvisor{e: newRefEngine(params, sets)}
}

// AdviseHit mirrors core.Advisor.AdviseHit decision-for-decision,
// including the writeback no-op contract.
func (r *RefAdvisor) AdviseHit(a cache.Access, set int) core.Advice {
	return r.e.adviseHit(a, set)
}

// AdviseMiss mirrors core.Advisor.AdviseMiss decision-for-decision,
// including the mayBypass and writeback contracts.
func (r *RefAdvisor) AdviseMiss(a cache.Access, set int, mayBypass bool) core.Advice {
	return r.e.adviseMiss(a, set, mayBypass)
}

// CompareState checks a production advisor's complete predictor and
// sampler state against the reference — every weight and every sampler
// entry, in both directions — plus the production advisor's own
// structural invariants. It returns the first divergence found, or nil.
func (r *RefAdvisor) CompareState(adv *core.Advisor) error {
	if err := r.e.diffState(adv); err != nil {
		return err
	}
	return adv.CheckState()
}
