package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit are well formed.
func validMetric(name, unit string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit, at most 64 long", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", name, unit)
	}
	return nil
}

// metricSet collects metrics in report order.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) add(name, unit string, v float64) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if err := validMetric(name, unit); err != nil {
		panic(err) // the names are constants of this program
	}
	if _, dup := s.m[name]; dup {
		panic("duplicate metric " + name)
	}
	s.names = append(s.names, name)
	s.m[name] = metric{Value: v, Unit: unit}
}

// print writes one human-readable line per metric, then the result line.
func (s *metricSet) print(w io.Writer, r result) error {
	for _, n := range s.names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, s.m[n].Value, s.m[n].Unit)
	}
	for n, m := range s.m {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	r.Metrics = s.m
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above the reported tail.
const minBeyond = 10

// tail returns the highest percentile of xs that has at least minBeyond
// samples beyond it: the (n-minBeyond)-th smallest sample, and that
// percentile. With too few samples for a tail it returns ok=false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-minBeyond-1], 100 * float64(n-minBeyond) / float64(n), true
}

// div is a/b, or 0 when nothing was measured.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
