package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// layer names one module of the simulator a span is attributed to. The
// traced replicas open a span around every call they make into a layer's
// public functions; a span's self time is its duration minus the time its
// child spans cover, less the calibrated cost of the clock reads that fall
// inside it.
type layer uint8

const (
	layerOp         layer = iota // the whole op; its self time is the driver loop
	layerSource                  // trace.Generator refills (workload or replay)
	layerCPU                     // cpu.Core NonMem and Mem
	layerCache                   // cache.Hierarchy.Demand
	layerPrefetch                // cache.Prefetcher.OnL1Miss
	layerPolicy                  // L1/L2 LRU and baseline LLC policies
	layerCore                    // the multiperspective predictor (core.MPPPB)
	layerHawkeye                 // predictor.Hawkeye
	layerPerceptron              // predictor.Perceptron
	layerBelady                  // belady.Recorder and belady.MIN
	numLayers
)

var layerNames = [numLayers]string{"op", "source", "cpu", "cache", "prefetch", "policy", "core", "hawkeye", "perceptron", "belady"}

// hook names a cache.ReplacementPolicy callback, so per-callback cost can
// be split out for the predictor.
type hook uint8

const (
	hookHit hook = iota
	hookVictim
	hookFill
	hookEvict
	hookNone
	numHooks = hookNone
)

var hookNames = [numHooks]string{"hit", "victim", "fill", "evict"}

// span is one sampled, fully recorded span as written to the span file.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// frame is an open span.
type frame struct {
	l     layer
	h     hook
	kids  uint32 // closed child spans
	id    uint64
	start int64
	child int64 // time covered by closed child spans
}

// tracer aggregates spans in memory: per layer self time and call count,
// per (layer, hook) self time and calls, and every sampleEvery-th span in
// full. It is single-threaded, like the closed loop it measures, and
// allocates nothing per span once the sample buffer is full.
type tracer struct {
	clock func() int64 // monotonic nanoseconds
	// The clock reads of a span add selfCost to its own self time and
	// childCost to its parent's; end subtracts both (see calibrate).
	selfCost, childCost int64

	stack [32]frame
	depth int
	seq   uint64 // spans opened so far; also the span id
	op    int    // id of the current op

	self      [numLayers]int64
	calls     [numLayers]uint64
	hookSelf  [numLayers][numHooks]int64
	hookCalls [numLayers][numHooks]uint64

	sampleEvery uint64
	maxSamples  int
	samples     []span
}

// newTracer returns a calibrated tracer on the monotonic clock that keeps
// one span in sampleEvery, up to maxSamples.
func newTracer(sampleEvery uint64, maxSamples int) *tracer {
	base := time.Now()
	t := &tracer{
		clock:       func() int64 { return int64(time.Since(base)) },
		sampleEvery: sampleEvery,
		maxSamples:  maxSamples,
	}
	t.calibrate()
	return t
}

// calibrate measures what instrumentation adds to the times a span
// charges: the self time of an empty span, and the self time a parent
// gains per empty child. Each is the least of several rounds, so a round
// slowed by the host never makes end subtract more than a clock read
// costs. Host speed drifts, so traced runs calibrate before every pass.
func (t *tracer) calibrate() {
	const rounds, n = 9, 20000
	var self, child []float64
	for r := 0; r < rounds; r++ {
		s := tracer{clock: t.clock}
		s.begin(layerOp, hookNone)
		for i := 0; i < n; i++ {
			s.begin(layerCPU, hookNone)
			s.end()
		}
		s.end()
		e := float64(s.self[layerCPU]) / n
		self = append(self, e)
		child = append(child, (float64(s.self[layerOp])-e)/n)
	}
	t.selfCost, t.childCost = int64(slices.Min(self)), int64(slices.Min(child))
}

// begin opens a span of layer l.
func (t *tracer) begin(l layer, h hook) {
	t.seq++
	t.stack[t.depth] = frame{l: l, h: h, id: t.seq, start: t.clock()}
	t.depth++
}

// end closes the innermost span, charging its self time to its layer and
// its whole duration to its parent's child time.
func (t *tracer) end() {
	now := t.clock()
	t.depth--
	f := &t.stack[t.depth]
	d := now - f.start
	self := d - f.child - t.selfCost - int64(f.kids)*t.childCost
	t.self[f.l] += self
	t.calls[f.l]++
	if f.h != hookNone {
		t.hookSelf[f.l][f.h] += self
		t.hookCalls[f.l][f.h]++
	}
	var parent uint64
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.child += d
		p.kids++
		parent = p.id
	}
	if t.sampleEvery > 0 && f.id%t.sampleEvery == 0 && len(t.samples) < t.maxSamples {
		t.samples = append(t.samples, span{ID: f.id, Parent: parent, Op: t.op, Name: layerNames[f.l], Start: f.start, End: now})
	}
}

// total is the summed self time of every layer: the wall time of all
// closed op spans, less the instrumentation's own.
func (t *tracer) total() int64 {
	var s int64
	for _, v := range t.self {
		s += v
	}
	return s
}

// writeSamples writes the sampled spans as JSON lines to path.
func (t *tracer) writeSamples(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.samples {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
