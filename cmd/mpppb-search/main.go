// Command mpppb-search runs the paper's feature-development methodology
// (Section 5): evaluate a population of random 16-feature sets with the
// fast MPKI-only simulator on a training subset of the suite, then refine
// the best set by hill climbing. It prints the Figure 3-style summary and
// the resulting feature set in the paper's notation.
//
//	mpppb-search -random 100 -climb 200 -training 12
//	mpppb-search -random 40 -seed 7 -measure 2000000
//
// Long searches checkpoint with -journal FILE: every feature set's
// evaluation is persisted as it completes, and -resume replays them so an
// interrupted search (the proposal sequence is seeded, hence repeatable)
// continues where it stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/prof"
	"mpppb/internal/sim"
)

func main() {
	var (
		nRandom  = flag.Int("random", 40, "random feature sets to evaluate (paper: 4000)")
		climb    = flag.Int("climb", 80, "hill-climb proposals")
		training = flag.Int("training", 8, "training segments drawn across the suite")
		warmup   = flag.Uint64("warmup", 300_000, "warmup instructions per evaluation")
		measure  = flag.Uint64("measure", 1_000_000, "measured instructions per evaluation")
		check    = flag.Bool("check", false, "run the lockstep verification layer on every cache (slow; a divergence aborts with the access index and set dump)")
		seed     = flag.Uint64("seed", 2017, "search seed")
		quiet    = flag.Bool("q", false, "suppress progress output")
		j        = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines; each feature-set evaluation fans its training segments across them (1 = serial)")
	)
	jf := journal.RegisterFlags(flag.CommandLine)
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	parallel.SetDefault(*j)

	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = *warmup, *measure
	cfg.Check = *check

	type fingerprintConfig struct {
		Tool     string `json:"tool"`
		Random   int    `json:"random"`
		Climb    int    `json:"climb"`
		Training int    `json:"training"`
		Warmup   uint64 `json:"warmup"`
		Measure  uint64 `json:"measure"`
	}
	fp := journal.Fingerprint{
		Config: journal.ConfigHash(fingerprintConfig{
			Tool:     "mpppb-search",
			Random:   *nRandom,
			Climb:    *climb,
			Training: *training,
			Warmup:   *warmup,
			Measure:  *measure,
		}),
		Version: journal.BuildVersion(),
		Seed:    int64(*seed),
	}
	jrnl, err := jf.Open(fp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-search: %v\n", err)
		os.Exit(1)
	}
	defer jrnl.Close()

	status := obs.NewRunStatus("mpppb-search")
	status.SetMeta(fp.Config, jf.Path)
	obsStop, err := of.Start(status)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-search: %v\n", err)
		os.Exit(1)
	}
	defer obsStop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := &experiments.Run{Ctx: ctx, Journal: jrnl, Status: status}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	res, err := experiments.Fig3FeatureSearch(cfg, experiments.TrainingSegments(*training),
		*nRandom, *climb, *seed, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mpppb-search: interrupted; re-run with the same flags plus -resume to continue")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "mpppb-search: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("random sets evaluated: %d (training MPKI %.3f worst .. %.3f best)\n",
		len(res.RandomMPKI), res.RandomMPKI[0], res.RandomMPKI[len(res.RandomMPKI)-1])
	fmt.Printf("hill-climbed:          %.3f MPKI\n", res.HillClimbed.MPKI)
	fmt.Printf("paper set 1(b):        %.3f MPKI\n", res.PaperSetMPKI)
	fmt.Printf("LRU reference:         %.3f MPKI\n", res.LRUMPKI)
	fmt.Printf("MIN reference:         %.3f MPKI\n", res.MINMPKI)
	fmt.Printf("fast-simulator runs:   %d\n", res.Evaluations)
	fmt.Println("\nbest feature set found:")
	for _, f := range res.HillClimbed.Features {
		fmt.Printf("  %s\n", f)
	}
}
