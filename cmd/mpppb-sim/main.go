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
// disk. Failed runs print NA cells and exit non-zero instead of aborting
// the whole grid. -listen HOST:PORT serves live /metrics, /status and
// /debug/pprof for the run; -progress 10s prints a stderr ticker.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"mpppb"
	"mpppb/internal/core"
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
	var segs []int
	if *seg >= 0 {
		segs = []int{*seg}
	} else {
		for s := 0; s < workload.SegmentsPerBenchmark; s++ {
			segs = append(segs, s)
		}
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
	for _, b := range benches {
		for _, s := range segs {
			for _, pname := range strings.Split(*policies, ",") {
				jobs = append(jobs, job{workload.SegmentID{Bench: b, Seg: s}, strings.TrimSpace(pname)})
			}
		}
	}
	type rowInfo struct {
		Res  mpppb.Result `json:"res"`
		Info string       `json:"info,omitempty"`
	}
	for _, jb := range jobs {
		status.AddCells("sim/" + jb.id.String() + "/" + jb.pname)
	}
	opts := parallel.RunOpts{KeepGoing: true}
	rows, rowErrs, err := parallel.MapErr(ctx, opts, len(jobs), func(ctx context.Context, i int) (rowInfo, error) {
		jb := jobs[i]
		key := "sim/" + jb.id.String() + "/" + jb.pname
		status.CellRunning(key)
		var row rowInfo
		if hit, err := jrnl.Load(key, &row); err != nil {
			return rowInfo{}, err
		} else if hit {
			status.CellDone(key, obs.CellJournal, 0)
			return row, nil
		}
		t0 := time.Now()
		if *verbose && strings.HasPrefix(jb.pname, "mpppb") {
			res, info, err := mpppb.RunVerbose(cfg, jb.id, jb.pname)
			if err != nil {
				return rowInfo{}, err
			}
			row = rowInfo{Res: res, Info: info}
		} else {
			res, err := mpppb.Run(cfg, jb.id, jb.pname)
			if err != nil {
				return rowInfo{}, err
			}
			row = rowInfo{Res: res}
		}
		status.CellDone(key, obs.CellOK, time.Since(t0))
		return row, jrnl.Record(key, row)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mpppb-sim: interrupted")
			if jf.Path != "" {
				fmt.Fprintf(os.Stderr, "mpppb-sim: completed runs saved; re-run with -journal %s -resume to continue\n", jf.Path)
			}
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "segment\tpolicy\tIPC\tMPKI\tLLC misses\tbypasses")
	failed := 0
	for i, jb := range jobs {
		if rowErrs[i] != nil {
			failed++
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
	if failed > 0 {
		for i, jb := range jobs {
			if rowErrs[i] != nil {
				fmt.Fprintf(os.Stderr, "FAILED %s/%s: %v\n", jb.id, jb.pname, rowErrs[i])
				jrnl.RecordFailure("sim/"+jb.id.String()+"/"+jb.pname, rowErrs[i])
				status.CellDone("sim/"+jb.id.String()+"/"+jb.pname, obs.CellFailed, 0)
			}
		}
		fmt.Fprintf(os.Stderr, "mpppb-sim: %d of %d runs failed (NA cells above)\n", failed, len(jobs))
		os.Exit(3)
	}
}
