// Command perfbench is the repository benchmark: it runs one named
// workload of simulator calls serially from one process, checks every
// call's simulated output, and prints host-time and simulated-model
// metrics. With -trace 1 it instead runs traced replicas of the same calls
// and prints the per-layer breakdown. See README.md.
//
// Usage:
//
//	perfbench -workload fig6-llc-heavy -seed 1 -seconds 20 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"mpppb/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times a run builds its workload; setup_s is
// the median.
const setupRepeats = 5

// spanDir receives a traced run's sampled spans, under the checkout's
// ignored build directory.
var spanDir = filepath.Join(".bench_build", "perfbench")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed: generator salt and mix seed")
	seconds := fs.Float64("seconds", 20, "measured time; sets the pass count")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead")
	record := fs.String("record", "", "write this seed's op pins into `file` and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured passes to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace is 0 or 1, not %d\n", *traced)
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// One caller, one op at a time; the second processor (when there is
	// one) absorbs the collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := &bench{w: w, seed: *seed, seconds: *seconds, stderr: stderr, probe: newHostProbe()}
	if err := b.setup(); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	if *record != "" {
		return b.record(*record)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	var ms metricSet
	if *traced == 1 {
		ms, err = b.tracedRun(filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)))
	} else {
		ms, err = b.timedRun()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if err := ms.print(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       *workloadDef
	seed    uint64
	seconds float64
	stderr  io.Writer

	ops    []op
	pins   map[string]string // op key -> pin hash; nil when the seed is unpinned
	ref    []string          // each op's rendered result from its first run
	setups []float64         // seconds per set-up

	attempted, failed int
	heap              heapPeak
	probe             *hostProbe
}

// setup builds the workload setupRepeats times, keeping the last build.
// Generator construction, trace capture and pin loading all count.
func (b *bench) setup() error {
	for i := 0; i < setupRepeats; i++ {
		b.ops, b.pins = nil, nil
		b.heap.before()
		t0 := time.Now()
		ops, err := b.w.build(b.seed)
		if err != nil {
			return err
		}
		pins, err := loadPins(b.w.name, b.seed)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.heap.after()
		b.ops, b.pins = ops, pins
	}
	b.ref = make([]string, len(b.ops))
	if b.pins == nil {
		fmt.Fprintf(b.stderr, "perfbench: seed %d has no pinned outputs for %s; checking run-to-run identity and invariants only\n", b.seed, b.w.name)
	}
	return nil
}

// passes is how many passes a run makes.
func (b *bench) passes() int {
	return max(minPasses, int(math.Round(b.seconds/b.w.nominalPass)))
}

// runOp times one op and checks its output. A panic or a mismatch fails
// the op.
func (b *bench) runOp(i int) (out outcome, sec float64, ok bool) {
	o := &b.ops[i]
	b.attempted++
	b.heap.before()
	t0 := time.Now()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		out, err = o.run()
		return err
	}()
	sec = time.Since(t0).Seconds()
	b.heap.after()
	if err == nil {
		err = b.check(i, out)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: op %s failed: %v\n", o.key, err)
		return out, sec, false
	}
	return out, sec, true
}

// check compares an op's outcome with its pin, with its first run in this
// process, and with the simulator's invariants.
func (b *bench) check(i int, out outcome) error {
	o := &b.ops[i]
	got := out.render(o.kind)
	if b.ref[i] == "" {
		if err := invariants(o, out); err != nil {
			return err
		}
		if b.pins != nil && b.pins[o.key] != pinHash(got) {
			return fmt.Errorf("result %s does not match its pin %s", pinHash(got), b.pins[o.key])
		}
		b.ref[i] = got
		return nil
	}
	if got != b.ref[i] {
		return fmt.Errorf("result differs from this op's first run:\n  first %s\n  now   %s", b.ref[i], got)
	}
	return nil
}

// invariants are checks every correct result meets, pinned or not.
func invariants(o *op, out outcome) error {
	plausible := func(r sim.Result) error {
		if r.Instructions < o.cfg.Measure || !(r.IPC > 0) || r.LLCMisses > r.LLCAccesses {
			return fmt.Errorf("implausible result %+v", r.Deterministic())
		}
		return nil
	}
	switch o.kind {
	case kindMulti:
		r := out.multi
		for i := range r.IPC {
			if r.Instructions[i] < o.cfg.Measure || !(r.IPC[i] > 0) {
				return fmt.Errorf("core %d measured %d instructions at IPC %g", i, r.Instructions[i], r.IPC[i])
			}
		}
		if r.LLCMisses > r.LLCAccesses {
			return fmt.Errorf("%d LLC misses exceed %d accesses", r.LLCMisses, r.LLCAccesses)
		}
		return nil
	case kindMIN:
		if err := plausible(out.lru); err != nil {
			return err
		}
		if out.res.LLCMisses > out.lru.LLCMisses {
			return fmt.Errorf("MIN missed %d times, more than LRU's %d", out.res.LLCMisses, out.lru.LLCMisses)
		}
	}
	return plausible(out.res)
}

// timedRun makes the untraced passes and derives the end-to-end metrics.
func (b *bench) timedRun() (metricSet, error) {
	var (
		walls, rates, ratios, lruRates, mpRates, opMS []float64
		first                                         []outcome
		firstOK                                       = true
	)
	for p := 0; p < b.passes(); p++ {
		b.probe.sample()
		outs := make([]outcome, len(b.ops))
		var instr, opSec, passSec float64
		var acc, sec [3]float64 // by rate group
		for i := range b.ops {
			out, s, ok := b.runOp(i)
			outs[i] = out
			opMS = append(opMS, s*1000)
			passSec += s
			if !ok {
				if p == 0 {
					firstOK = false
				}
				continue
			}
			n, a := out.simulated(&b.ops[i])
			instr += float64(n)
			opSec += s
			if g := b.ops[i].group; g != groupNone {
				acc[g] += float64(a)
				sec[g] += s
			}
		}
		walls = append(walls, passSec)
		rates = append(rates, div(instr, opSec)/1e6)
		lr, mr := div(acc[groupLRU], sec[groupLRU])/1e6, div(acc[groupMPPPB], sec[groupMPPPB])/1e6
		lruRates, mpRates = append(lruRates, lr), append(mpRates, mr)
		ratios = append(ratios, div(mr, lr))
		if p == 0 {
			first = outs
		}
	}
	tv, pct, ok := tail(opMS)
	if !ok {
		return metricSet{}, fmt.Errorf("%d ops are too few for a tail percentile", len(opMS))
	}
	f := b.probe.scale()
	fmt.Fprintf(b.stderr, "perfbench: %d passes; op_ms.tail is p%.2f of %d ops (%d beyond it)\n", len(walls), pct, len(opMS), minBeyond)
	fmt.Fprintf(b.stderr, "perfbench: host probe %.3f ms against %.3f ms reference: host times scaled by %.4f (unscaled wall_s %.4f, setup_s %.6f, op_ms.p50 %.3f)\n",
		median(b.probe.samples)*1000, probeReference*1000, f, median(walls), median(b.setups), median(opMS))
	var ms metricSet
	ms.add("wall_s", "s", f*median(walls))
	ms.add("setup_s", "s", f*median(b.setups))
	ms.add("sim_minstr_per_s", "Minstr/s", median(rates)/f)
	ms.add("llc_macc_per_s.lru", "Macc/s", median(lruRates)/f)
	ms.add("llc_macc_per_s.mpppb", "Macc/s", median(mpRates)/f)
	ms.add("mpppb_lru_rate_ratio", "ratio", median(ratios))
	ms.add("op_ms.p50", "ms", f*median(opMS))
	ms.add("op_ms.tail", "ms", f*tv)
	ms.add("peak_heap_mb", "MB", b.heap.mb())
	mpki, speedup := 0.0, 0.0
	if firstOK {
		mpki, speedup = b.w.summarize(b.ops, first)
	}
	ms.add("mpki.mpppb", "MPKI", mpki)
	ms.add("speedup.mpppb", "x", speedup)
	return ms, nil
}

// record runs one pass and writes its pins.
func (b *bench) record(path string) int {
	b.pins = nil
	pins := map[string]string{}
	for i := range b.ops {
		out, _, ok := b.runOp(i)
		if !ok {
			return 1
		}
		pins[b.ops[i].key] = pinHash(out.render(b.ops[i].kind))
	}
	if err := recordPins(path, b.seed, pins); err != nil {
		fmt.Fprintln(b.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(b.stderr, "perfbench: pinned %d ops of %s seed %d in %s\n", len(pins), b.w.name, b.seed, path)
	return 0
}

// heapPeak tracks the most heap any set-up or op could hold: the live
// heap after a full collection just before it, plus every byte it
// allocates. Both terms are deterministic for a deterministic program,
// where a sampled peak moves with the collector's timing.
type heapPeak struct {
	peak, live, allocs uint64
}

var heapSamples = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}

// before collects the heap and notes its live size.
func (h *heapPeak) before() {
	runtime.GC()
	metrics.Read(heapSamples)
	h.live, h.allocs = heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

// after accounts for what was allocated since before.
func (h *heapPeak) after() {
	metrics.Read(heapSamples)
	h.peak = max(h.peak, h.live+heapSamples[1].Value.Uint64()-h.allocs)
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }
