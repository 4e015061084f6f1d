// Command mpppb-sweep explores sensitivity beyond the paper's figures:
// LLC capacity sweeps and DRAM-latency sweeps per policy, printed as TSV.
// Useful for checking that the reproduction's policy orderings are not an
// artifact of one cache size.
//
//	mpppb-sweep -bench sphinx3_like -policy lru,mpppb,min
//	mpppb-sweep -bench gcc_like -dim mem -policy lru,mpppb
//
// Sweeps checkpoint with -journal FILE; -resume skips the grid cells
// already on disk. Failed cells print NA and the sweep exits 3. The grid
// can be spread over machines with -coordinator and -worker, exactly as
// in mpppb-experiments (docs/DISTRIBUTED.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"mpppb"
	"mpppb/internal/experiments"
	"mpppb/internal/fleet"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/prof"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "sphinx3_like", "benchmark")
		seg      = flag.Int("seg", 1, "segment")
		policies = flag.String("policy", "lru,mpppb,min", "comma-separated policies")
		dim      = flag.String("dim", "llc", "sweep dimension: llc (capacity) or mem (DRAM latency)")
		warmup   = flag.Uint64("warmup", sim.DefaultWarmup, "warmup instructions")
		measure  = flag.Uint64("measure", sim.DefaultMeasure, "measured instructions")
		check    = flag.Bool("check", false, "run the lockstep verification layer on every cache (slow; a divergence aborts with the access index and set dump)")
		j        = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for independent runs (1 = serial)")
	)
	jf := journal.RegisterFlags(flag.CommandLine)
	of := obs.RegisterFlags(flag.CommandLine)
	ff := fleet.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	parallel.SetDefault(*j)

	if !workload.Lookup(*bench) {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	id := mpppb.Segment(*bench, *seg)
	pols := strings.Split(*policies, ",")
	for i := range pols {
		pols[i] = strings.TrimSpace(pols[i])
	}
	if err := sim.CheckNames("policy", pols, mpppb.Policies()); err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sweep: -policy: %v\n", err)
		os.Exit(1)
	}

	type point struct {
		label string
		cfg   mpppb.Config
	}
	var points []point
	base := mpppb.SingleThreadConfig()
	base.Warmup, base.Measure = *warmup, *measure
	base.Check = *check
	switch *dim {
	case "llc":
		for _, mb := range []int{1, 2, 4, 8} {
			cfg := base
			cfg.LLCSize = mb << 20
			points = append(points, point{fmt.Sprintf("%dMB", mb), cfg})
		}
	case "mem":
		for _, lat := range []int{120, 240, 480} {
			cfg := base
			cfg.Lat.Mem = lat
			points = append(points, point{fmt.Sprintf("%dcyc", lat), cfg})
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown dimension %q (want llc or mem)\n", *dim)
		os.Exit(1)
	}

	type fingerprintConfig struct {
		Tool    string `json:"tool"`
		Warmup  uint64 `json:"warmup"`
		Measure uint64 `json:"measure"`
	}
	fp := journal.Fingerprint{
		Config: journal.ConfigHash(fingerprintConfig{
			Tool:    "mpppb-sweep",
			Warmup:  *warmup,
			Measure: *measure,
		}),
		Version: journal.BuildVersion(),
	}
	if err := ff.Check(of.Listen, jf.Path); err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sweep: %v\n", err)
		os.Exit(1)
	}
	jrnl, err := jf.Open(fp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sweep: %v\n", err)
		os.Exit(1)
	}
	defer jrnl.Close()

	status := obs.NewRunStatus("mpppb-sweep")
	status.SetMeta(fp.Config, jf.Path)
	board, worker, routes, err := ff.Open(fp, jrnl, status, *j)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sweep: %v\n", err)
		os.Exit(1)
	}
	if board != nil {
		defer board.Close()
	}
	obsStop, err := of.Start(status, routes...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sweep: %v\n", err)
		os.Exit(1)
	}
	defer obsStop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The (point, policy) grid is independent runs; fan it across the
	// pool (or the fleet) and print in grid order.
	keys := make([]string, 0, len(points)*len(pols))
	for _, pt := range points {
		for _, p := range pols {
			keys = append(keys, "sweep/"+id.String()+"/"+*dim+"/"+pt.label+"/"+p)
		}
	}
	run := &experiments.Run{Ctx: ctx, Journal: jrnl, KeepGoing: true, Status: status, Fleet: board, FleetWorker: worker}
	results, cellErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (mpppb.Result, error) {
		return mpppb.Run(points[i/len(pols)].cfg, id, pols[i%len(pols)])
	})
	if err == nil {
		fmt.Printf("# sweep %s over %s, segment %s\n", *dim, strings.Join(pols, ","), id)
		fmt.Printf("point")
		for _, p := range pols {
			fmt.Printf("\t%s_ipc\t%s_mpki", p, p)
		}
		fmt.Println()
		for pi, pt := range points {
			fmt.Printf("%s", pt.label)
			for qi := range pols {
				i := pi*len(pols) + qi
				if cellErrs[i] != nil {
					fmt.Printf("\tNA\tNA")
					continue
				}
				fmt.Printf("\t%.3f\t%.2f", results[i].IPC, results[i].MPKI)
			}
			fmt.Println()
		}
	}
	if code := run.Finish(os.Stderr, "mpppb-sweep", jf.Path, err); code != 0 {
		os.Exit(code)
	}
}
