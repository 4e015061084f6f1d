package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// shrink scales ops down for tests.
func shrink(ops []op, warmup, measure uint64) []op {
	for i := range ops {
		ops[i].cfg.Warmup, ops[i].cfg.Measure = warmup, measure
	}
	return ops
}

func runAll(t *testing.T, ops []op) []outcome {
	t.Helper()
	outs := make([]outcome, len(ops))
	for i := range ops {
		out, err := ops[i].run()
		if err != nil {
			t.Fatalf("%s: %v", ops[i].key, err)
		}
		outs[i] = out
	}
	return outs
}

// TestReplicasAreBitIdentical runs every kind of op both ways:
// sim.RunSingle under each fig6 policy, sim.RunSingleMIN, sim.RunMulti,
// and mpppb.RunTrace with the checker on and off.
func TestReplicasAreBitIdentical(t *testing.T) {
	fig6, err := fig6Ops([]string{"bzip2_like"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	mc4, err := mc4Ops(7)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := replayOps(7)
	if err != nil {
		t.Fatal(err)
	}
	ops := append(append(shrink(fig6[:5], 20_000, 60_000), shrink(mc4[:6], 10_000, 30_000)...), shrink(replay[:2], 20_000, 60_000)...)
	seen := map[opKind]bool{}
	checked := false
	tr := newTracer(97, 1000)
	var c counts
	for i := range ops {
		o := &ops[i]
		want, err := o.run()
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []sim.Config{o.cfg}
		if o.cfg.Check {
			checked = true
			off := o.cfg
			off.Check = false
			cfgs = append(cfgs, off)
		}
		for _, cfg := range cfgs {
			got, d := runTraced(tr, &c, o, cfg)
			if got.render(o.kind) != want.render(o.kind) {
				t.Errorf("%s (check=%v): replica differs\n  op      %s\n  replica %s", o.key, cfg.Check, want.render(o.kind), got.render(o.kind))
			}
			if d <= 0 {
				t.Errorf("%s: replica took %d ns", o.key, d)
			}
		}
		seen[o.kind] = true
	}
	for _, k := range []opKind{kindSingle, kindMIN, kindMulti, kindTrace} {
		if !seen[k] {
			t.Errorf("op kind %d not exercised", k)
		}
	}
	if !checked || c.checkEvents == 0 {
		t.Errorf("no Check-mode replica ran (events %d)", c.checkEvents)
	}
	if tr.depth != 0 {
		t.Errorf("%d spans left open", tr.depth)
	}
	for _, l := range []layer{layerOp, layerSource, layerCPU, layerCache, layerPrefetch, layerPolicy, layerCore, layerHawkeye, layerPerceptron, layerBelady} {
		if tr.calls[l] == 0 {
			t.Errorf("no %s spans", layerNames[l])
		}
	}
	ms := layerMetrics(tr, &c, 1)
	for _, n := range ms.names {
		if v := ms.m[n].Value; v < 0 {
			t.Errorf("%s = %g", n, v)
		}
	}
}

// TestSummariesMatchExperiments ties the benchmark's mpki.mpppb and
// speedup.mpppb to what the experiment drivers report on the same inputs
// (seed 0 is the canonical, unsalted stream).
func TestSummariesMatchExperiments(t *testing.T) {
	benches := []string{"bzip2_like", "povray_like"}
	ops, err := fig6Ops(benches, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops = shrink(ops, 20_000, 60_000)
	mpki, speedup := benchSummary(ops, runAll(t, ops))
	st, err := experiments.SingleThread(ops[0].cfg, []string{"mpppb"}, benches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mpki != st.MeanMPKI["mpppb"] || speedup != st.GeomeanSpeedup["mpppb"] {
		t.Errorf("single-thread: benchmark mpki %v speedup %v, experiments %v %v", mpki, speedup, st.MeanMPKI["mpppb"], st.GeomeanSpeedup["mpppb"])
	}

	mops, err := mc4Ops(3)
	if err != nil {
		t.Fatal(err)
	}
	mops = shrink(mops, 10_000, 30_000)
	mpki, speedup = mixSummary(mops, runAll(t, mops))
	mixes, err := mc4Mixes(3)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := experiments.MultiCore(mops[0].cfg, []string{"mpppb-srrip"}, mixes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mpki != mc.MeanMPKI["mpppb-srrip"] || speedup != mc.GeomeanSpeedup["mpppb-srrip"] {
		t.Errorf("4-core: benchmark mpki %v speedup %v, experiments %v %v", mpki, speedup, mc.MeanMPKI["mpppb-srrip"], mc.GeomeanSpeedup["mpppb-srrip"])
	}
}

// TestMixesAreHeldOutAndSeeded checks the 4-core mixes: every segment
// once, reproducible per seed, different across seeds.
func TestMixesAreHeldOutAndSeeded(t *testing.T) {
	a, err := mc4Mixes(11)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mc4Mixes(11)
	c, _ := mc4Mixes(12)
	seen := map[workload.SegmentID]int{}
	for _, m := range a {
		for _, id := range m {
			seen[id]++
		}
	}
	for _, id := range mc4Segments {
		if seen[id] != 1 {
			t.Errorf("%s appears %d times", id, seen[id])
		}
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("seed 11 drew %s then %s", a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 11 and 12 drew the same mixes")
	}
}

// tinyBench is a fig6 bench over one resident benchmark at toy scale.
func tinyBench(t *testing.T) *bench {
	t.Helper()
	w := &workloadDef{
		name:        "tiny",
		nominalPass: 1,
		build: func(seed uint64) ([]op, error) {
			ops, err := fig6Ops([]string{"povray_like"}, seed)
			return shrink(ops, 5_000, 10_000), err
		},
		summarize: benchSummary,
	}
	b := &bench{w: w, seed: 1, stderr: io.Discard, probe: newHostProbe()}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunsReportDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	b := tinyBench(t)
	ms, err := b.timedRun()
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted != minPasses*len(b.ops) {
		t.Errorf("timed run: %d of %d ops failed, want 0 of %d", b.failed, b.attempted, minPasses*len(b.ops))
	}
	sameMetrics(t, "end_to_end", bf.EndToEnd, ms)
	for _, n := range ms.names {
		if !(ms.m[n].Value > 0) {
			t.Errorf("%s = %g, want a positive measurement", n, ms.m[n].Value)
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	ms, err = b.tracedRun(spans)
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Errorf("traced run: %d ops failed", b.failed)
	}
	sameMetrics(t, "per_layer", bf.PerLayer, ms)
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("no sampled spans written: %v", err)
	}
}

func TestMismatchFailsTheOp(t *testing.T) {
	b := tinyBench(t)
	b.pins = map[string]string{}
	for _, o := range b.ops {
		b.pins[o.key] = "0000000000000000"
	}
	if _, err := b.timedRun(); err != nil {
		t.Fatal(err)
	}
	// Every op fails its pin on its first run and never sets a reference,
	// so it fails again on every pass.
	if b.failed != b.attempted {
		t.Errorf("%d of %d ops failed, want all", b.failed, b.attempted)
	}
}
