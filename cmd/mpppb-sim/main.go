// Command mpppb-sim runs one benchmark segment (or a whole benchmark, or
// the full suite) under one or more LLC policies and prints IPC and MPKI.
//
// Examples:
//
//	mpppb-sim -bench mcf_like -policy lru,mpppb
//	mpppb-sim -bench all -policy lru,hawkeye,perceptron,mpppb -measure 4000000
//	mpppb-sim -bench libquantum_like -seg 1 -policy min
//
// Large sweeps (-bench all with many policies) can checkpoint with
// -journal FILE; -resume skips the (segment, policy) runs already on
// disk. Failed runs print NA cells and exit 3 instead of aborting the
// whole grid; an unknown -policy is refused with exit 1 before any run. -listen HOST:PORT serves live /metrics, /status and
// /debug/pprof for the run; -progress 10s prints a stderr ticker.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"text/tabwriter"

	"mpppb"
	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/prof"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "mcf_like", "benchmark name, or 'all' for the whole suite")
		seg      = flag.Int("seg", -1, "segment index (0-2), or -1 for all segments")
		policies = flag.String("policy", "lru,mpppb", "comma-separated policy names (see -list)")
		warmup   = flag.Uint64("warmup", sim.DefaultWarmup, "warmup instructions")
		measure  = flag.Uint64("measure", sim.DefaultMeasure, "measured instructions")
		check    = flag.Bool("check", false, "run the lockstep verification layer on every cache (slow; a divergence aborts with the access index and set dump)")
		list     = flag.Bool("list", false, "list benchmarks and policies, then exit")
		verbose  = flag.Bool("v", false, "after mpppb runs, print decision counters and per-feature weight statistics")
		duel     = flag.String("duel", "", "override mpppb-adaptive duel candidates: ';'-separated threshold specs (the 'duel:' line mpppb-tune prints)")
		j        = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for independent runs (1 = serial)")
	)
	jf := journal.RegisterFlags(flag.CommandLine)
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	parallel.SetDefault(*j)

	if *list {
		fmt.Println("policies:", strings.Join(sim.PolicyNames(), " "), "min")
		fmt.Println("benchmarks:")
		classes := workload.Classes()
		for _, b := range workload.AllBenchmarks() {
			fmt.Printf("  %-22s %s\n", b, classes[b])
		}
		fmt.Println("  trace:<path>           external-trace (ingested binary trace)")
		return
	}

	cfg := sim.SingleThreadConfig()
	cfg.Warmup = *warmup
	cfg.Measure = *measure
	cfg.Check = *check

	if *duel != "" {
		cands, err := core.ParseDuelCandidates(*duel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpppb-sim: -duel: %v\n", err)
			os.Exit(1)
		}
		sim.SetDuelCandidates(cands)
	}

	var benches []string
	if *bench == "all" {
		benches = workload.Benchmarks()
	} else {
		if !workload.Lookup(*bench) {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", *bench)
			os.Exit(1)
		}
		benches = []string{*bench}
	}
	if err := sim.CheckSegment(*seg, true); err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sim: -seg: %v\n", err)
		os.Exit(1)
	}
	var segs []int
	if *seg >= 0 {
		segs = []int{*seg}
	} else {
		for s := 0; s < workload.SegmentsPerBenchmark; s++ {
			segs = append(segs, s)
		}
	}
	pols := strings.Split(*policies, ",")
	for i := range pols {
		pols[i] = strings.TrimSpace(pols[i])
	}
	if err := sim.CheckNames("policy", pols, mpppb.Policies()); err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sim: -policy: %v\n", err)
		os.Exit(1)
	}

	type fingerprintConfig struct {
		Tool    string `json:"tool"`
		Warmup  uint64 `json:"warmup"`
		Measure uint64 `json:"measure"`
		Verbose bool   `json:"verbose"`
		Duel    string `json:"duel,omitempty"`
	}
	fp := journal.Fingerprint{
		Config: journal.ConfigHash(fingerprintConfig{
			Tool:    "mpppb-sim",
			Warmup:  *warmup,
			Measure: *measure,
			Verbose: *verbose,
			Duel:    *duel,
		}),
		Version: journal.BuildVersion(),
	}
	jrnl, err := jf.Open(fp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sim: %v\n", err)
		os.Exit(1)
	}
	defer jrnl.Close()

	status := obs.NewRunStatus("mpppb-sim")
	status.SetMeta(fp.Config, jf.Path)
	obsStop, err := of.Start(status)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sim: %v\n", err)
		os.Exit(1)
	}
	defer obsStop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Every (segment, policy) run is independent: fan the grid across the
	// worker pool, then print rows in grid order so output is identical at
	// any -j.
	type job struct {
		id    workload.SegmentID
		pname string
	}
	var jobs []job
	var keys []string
	for _, b := range benches {
		for _, s := range segs {
			for _, pname := range pols {
				id := workload.SegmentID{Bench: b, Seg: s}
				jobs = append(jobs, job{id, pname})
				keys = append(keys, "sim/"+id.String()+"/"+pname)
			}
		}
	}
	type rowInfo struct {
		Res  mpppb.Result `json:"res"`
		Info string       `json:"info,omitempty"`
	}
	run := &experiments.Run{Ctx: ctx, Journal: jrnl, KeepGoing: true, Status: status}
	rows, rowErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (rowInfo, error) {
		jb := jobs[i]
		if *verbose {
			res, info, err := mpppb.RunVerbose(cfg, jb.id, jb.pname)
			return rowInfo{Res: res, Info: info}, err
		}
		res, err := mpppb.Run(cfg, jb.id, jb.pname)
		return rowInfo{Res: res}, err
	})
	if err == nil {
		w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(w, "segment\tpolicy\tIPC\tMPKI\tLLC misses\tbypasses")
		for i, jb := range jobs {
			if rowErrs[i] != nil {
				fmt.Fprintf(w, "%s\t%s\tNA\tNA\tNA\tNA\n", jb.id, jb.pname)
				continue
			}
			res := rows[i].Res
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.2f\t%d\t%d\n",
				jb.id, jb.pname, res.IPC, res.MPKI, res.LLCMisses, res.Bypasses)
		}
		w.Flush()
		for i, jb := range jobs {
			if rowErrs[i] == nil && rows[i].Info != "" {
				fmt.Fprintf(os.Stderr, "\n--- %s on %s ---\n%s", jb.pname, jb.id, rows[i].Info)
			}
		}
	}
	if code := run.Finish(os.Stderr, "mpppb-sim", jf.Path, err); code != 0 {
		os.Exit(code)
	}
}
