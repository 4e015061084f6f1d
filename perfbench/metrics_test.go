package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 100, 217} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the sort matters
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %g, want %d", n, beyond, v, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %g, want %g", n, pct, want)
		}
	}
	if _, _, ok := tail(make([]float64, minBeyond)); ok {
		t.Errorf("a tail over %d samples leaves fewer than %d beyond it", minBeyond, minBeyond)
	}
	if _, pct, _ := tail(make([]float64, 100)); pct != 90 {
		t.Errorf("100 samples: p%g, want p90", pct)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestValidMetric(t *testing.T) {
	good := [][2]string{
		{"wall_s", "s"}, {"llc_macc_per_s.mpppb", "Macc/s"}, {"core.ns_per_call.hit", "ns/call"},
		{"0.x-y_z", "%"}, {strings.Repeat("a", 64), strings.Repeat("u", 16)},
	}
	for _, g := range good {
		if err := validMetric(g[0], g[1]); err != nil {
			t.Errorf("validMetric(%q, %q): %v", g[0], g[1], err)
		}
	}
	bad := [][2]string{
		{"", "s"}, {"_lead", "s"}, {".lead", "s"}, {"has space", "s"}, {"slash/name", "s"},
		{"ünï", "s"}, {strings.Repeat("a", 65), "s"}, {"ok", ""}, {"ok", "sec onds"},
		{"ok", strings.Repeat("u", 17)},
	}
	for _, b := range bad {
		if validMetric(b[0], b[1]) == nil {
			t.Errorf("validMetric(%q, %q) accepted a malformed metric", b[0], b[1])
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameMetrics checks that ms reports exactly the declared metrics, with
// the declared units.
func sameMetrics(t *testing.T, kind string, declared []struct{ Name, Unit string }, ms metricSet) {
	t.Helper()
	if len(declared) != len(ms.names) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(ms.names))
	}
	for _, d := range declared {
		m, ok := ms.m[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s is not reported", kind, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s reported in %s, declared in %s", kind, d.Name, m.Unit, d.Unit)
		}
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	sameMetrics(t, "per_layer", bf.PerLayer, layerMetrics(newTracer(0, 0), &counts{}, 1))
}
