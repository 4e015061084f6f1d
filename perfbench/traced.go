package main

import (
	"fmt"
	"sort"
	"time"

	"mpppb/internal/sim"
)

// Sampled spans: one in spanSampleEvery, at most maxSpanSamples per run.
const (
	spanSampleEvery = 4099
	maxSpanSamples  = 20000
)

// tracedRun alternates an untraced pass with a traced pass of the same
// ops until the measured time is spent (at least one of each). Every
// traced replica must reproduce its untraced op's result exactly. An op
// with the checker on is replicated twice: with the checker, mirroring the
// op, and without it; the difference is the verify layer's cost, and the
// other layers are read from the unchecked replica.
func (b *bench) tracedRun(spanPath string) (metricSet, error) {
	t := newTracer(spanSampleEvery, maxSpanSamples)
	checked := newTracer(0, 0)
	var c, cc counts
	var untracedNS, mirroredNS int64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < b.seconds; pass++ {
		for i := range b.ops {
			if _, sec, ok := b.runOp(i); ok {
				untracedNS += int64(sec * 1e9)
			}
		}
		t.calibrate()
		checked.calibrate()
		for i := range b.ops {
			o := &b.ops[i]
			t.op, checked.op = i, i
			var d int64
			var err error
			if o.cfg.Check {
				var dOff int64
				if d, err = b.replicate(checked, &cc, i, o.cfg); err == nil {
					off := o.cfg
					off.Check = false
					dOff, err = b.replicate(t, &c, i, off)
				}
				c.checkOnNS += d
				c.checkOffNS += dOff
			} else {
				d, err = b.replicate(t, &c, i, o.cfg)
			}
			mirroredNS += d
			if err != nil {
				b.failed++
				fmt.Fprintf(b.stderr, "perfbench: traced replica of %s failed: %v\n", o.key, err)
			}
		}
	}
	c.checkEvents, c.checkRecords = cc.checkEvents, cc.records
	if err := t.writeSamples(spanPath); err != nil {
		return metricSet{}, err
	}
	b.printBreakdown(t, &c)
	return layerMetrics(t, &c, div(float64(mirroredNS), float64(untracedNS))), nil
}

// replicate runs op i's traced replica under cfg and compares its result
// with the untraced op's.
func (b *bench) replicate(t *tracer, c *counts, i int, cfg sim.Config) (d int64, err error) {
	o := &b.ops[i]
	b.attempted++
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	out, d := runTraced(t, c, o, cfg)
	if got := out.render(o.kind); got != b.ref[i] {
		return d, fmt.Errorf("replica result differs from the untraced op:\n  op      %s\n  replica %s", b.ref[i], got)
	}
	return d, nil
}

// layerMetrics derives the per-layer metrics from the traced replicas.
func layerMetrics(t *tracer, c *counts, overhead float64) metricSet {
	var ms metricSet
	rec := float64(c.records)
	ns := func(l layer) float64 { return float64(t.self[l]) }
	llcAcc := float64(c.llc.DemandAccesses + c.llc.PrefetchAccesses)
	llcMiss := float64(c.llc.DemandMisses + c.llc.PrefetchMisses)

	ms.add("source.ns_per_record", "ns/record", div(ns(layerSource), rec))
	ms.add("cpu.ns_per_record", "ns/record", div(ns(layerCPU), rec))
	ms.add("cache.ns_per_record", "ns/record", div(ns(layerCache), rec))
	ms.add("cache.l1.miss_ratio", "ratio", div(float64(c.l1.DemandMisses), float64(c.l1.DemandAccesses)))
	ms.add("cache.l2.miss_ratio", "ratio", div(float64(c.l2.DemandMisses), float64(c.l2.DemandAccesses)))
	ms.add("cache.llc.apki", "acc/kinstr", div(1000*llcAcc, float64(c.instr)))
	ms.add("cache.llc.miss_ratio", "ratio", div(llcMiss, llcAcc))
	ms.add("cache.llc.bypass_ratio", "ratio", div(float64(c.llc.Bypasses), llcMiss))
	ms.add("prefetch.ns_per_call", "ns/call", div(ns(layerPrefetch), float64(t.calls[layerPrefetch])))
	ms.add("prefetch.calls_per_kinstr", "calls/kinstr", div(1000*float64(c.pfCalls), float64(c.instr)))
	ms.add("prefetch.issued_per_call", "count/call", div(float64(c.pfIssue), float64(c.pfCalls)))
	ms.add("policy.ns_per_call", "ns/call", div(ns(layerPolicy), float64(t.calls[layerPolicy])))
	coreAcc := float64(c.llcLookups[layerCore])
	ms.add("core.ns_per_llc_access", "ns/llc_access", div(ns(layerCore), coreAcc))
	for h := hook(0); h < numHooks; h++ {
		ms.add("core.ns_per_call."+hookNames[h], "ns/call", div(float64(t.hookSelf[layerCore][h]), float64(t.hookCalls[layerCore][h])))
	}
	ms.add("core.share", "ratio", div(ns(layerCore), float64(c.opNS[layerCore])))
	ms.add("core.trains_per_kacc", "count/kacc", div(1000*float64(c.trains), coreAcc))
	ms.add("core.bypass_ratio", "ratio", div(float64(c.bypasses), float64(c.coreMisses)))
	ms.add("predictor.hawkeye.ns_per_llc_access", "ns/llc_access", div(ns(layerHawkeye), float64(c.llcLookups[layerHawkeye])))
	ms.add("predictor.perceptron.ns_per_llc_access", "ns/llc_access", div(ns(layerPerceptron), float64(c.llcLookups[layerPerceptron])))
	ms.add("belady.ns_per_llc_access", "ns/llc_access", div(ns(layerBelady), float64(c.llcLookups[layerBelady])))
	ms.add("verify.ns_per_record", "ns/record", div(float64(c.checkOnNS-c.checkOffNS), float64(c.checkRecords)))
	ms.add("verify.events_per_record", "count/record", div(float64(c.checkEvents), float64(c.checkRecords)))
	ms.add("sim.ns_per_record", "ns/record", div(ns(layerOp), rec))
	ms.add("sim.allocs_per_llc_access", "allocs/llc_acc", div(float64(c.mallocs), float64(c.llc.Accesses)))
	ms.add("trace.overhead_ratio", "ratio", overhead)
	return ms
}

// printBreakdown writes each layer's share of the traced self time,
// largest first.
func (b *bench) printBreakdown(t *tracer, c *counts) {
	total := float64(t.total())
	fmt.Fprintf(b.stderr, "perfbench: traced self time by layer (%d records, %.3f s traced; %d ns per span and %d ns per child span subtracted):\n",
		c.records, total/1e9, t.selfCost, t.childCost)
	order := make([]layer, 0, numLayers)
	for l := layer(0); l < numLayers; l++ {
		order = append(order, l)
	}
	sort.Slice(order, func(i, j int) bool { return t.self[order[i]] > t.self[order[j]] })
	for _, l := range order {
		fmt.Fprintf(b.stderr, "  %-11s %6.1f%%  %8.1f ns/record  %d calls\n", layerNames[l], 100*div(float64(t.self[l]), total), div(float64(t.self[l]), float64(c.records)), t.calls[l])
	}
	if c.checkRecords > 0 {
		fmt.Fprintf(b.stderr, "  verify: checked replicas took %.3f s against %.3f s unchecked\n", float64(c.checkOnNS)/1e9, float64(c.checkOffNS)/1e9)
	}
}
