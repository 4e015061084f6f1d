package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeClock returns a tracer whose clock reads successive values of ts.
func fakeClock(sampleEvery uint64, ts ...int64) *tracer {
	t := newTracer(sampleEvery, 100)
	t.selfCost, t.childCost = 0, 0
	i := 0
	t.clock = func() int64 { v := ts[i]; i++; return v }
	return t
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	// op [0,150) > cache [10,100) > {policy [20,50), prefetch [60,70)},
	// then cpu [110,120) directly under op. The policy span itself holds a
	// nested core span [25,45), as a decorator around a decorator would.
	tr := fakeClock(1, 0, 10, 20, 25, 45, 50, 60, 70, 100, 110, 120, 150)
	tr.begin(layerOp, hookNone)
	tr.begin(layerCache, hookNone)
	tr.begin(layerPolicy, hookVictim)
	tr.begin(layerCore, hookFill)
	tr.end()
	tr.end()
	tr.begin(layerPrefetch, hookNone)
	tr.end()
	tr.end()
	tr.begin(layerCPU, hookNone)
	tr.end()
	tr.end()

	want := map[layer]int64{layerOp: 150 - 90 - 10, layerCache: 90 - 30 - 10, layerPolicy: 30 - 20, layerCore: 20, layerPrefetch: 10, layerCPU: 10}
	for l, w := range want {
		if tr.self[l] != w {
			t.Errorf("%s self time %d, want %d", layerNames[l], tr.self[l], w)
		}
		if tr.calls[l] != 1 {
			t.Errorf("%s calls %d, want 1", layerNames[l], tr.calls[l])
		}
	}
	if tr.total() != 150 {
		t.Errorf("self times sum to %d, want the op's 150", tr.total())
	}
	if tr.hookSelf[layerPolicy][hookVictim] != 10 || tr.hookCalls[layerCore][hookFill] != 1 || tr.hookSelf[layerCore][hookFill] != 20 {
		t.Errorf("per-hook accounting wrong: %v %v", tr.hookSelf, tr.hookCalls)
	}

	// Every span was sampled; parents name the enclosing span's id.
	parent := map[string]uint64{}
	ids := map[string]uint64{}
	for _, s := range tr.samples {
		parent[s.Name], ids[s.Name] = s.Parent, s.ID
	}
	for child, p := range map[string]string{"cache": "op", "policy": "cache", "core": "policy", "prefetch": "cache", "cpu": "op"} {
		if parent[child] != ids[p] {
			t.Errorf("span %s has parent %d, want %s's id %d", child, parent[child], p, ids[p])
		}
	}
	if parent["op"] != 0 {
		t.Errorf("the op span has parent %d, want none", parent["op"])
	}
}

func TestSamplesAreBoundedAndWritten(t *testing.T) {
	tr := newTracer(3, 4)
	for i := 0; i < 30; i++ {
		tr.begin(layerCPU, hookNone)
		tr.end()
	}
	if len(tr.samples) != 4 {
		t.Fatalf("kept %d samples, want the cap of 4", len(tr.samples))
	}
	for _, s := range tr.samples {
		if s.ID%3 != 0 || s.End < s.Start {
			t.Errorf("bad sample %+v", s)
		}
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := tr.writeSamples(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s != tr.samples[n] {
			t.Errorf("line %d = %+v, want %+v", n, s, tr.samples[n])
		}
	}
	if n != 4 {
		t.Errorf("wrote %d lines, want 4", n)
	}
}
