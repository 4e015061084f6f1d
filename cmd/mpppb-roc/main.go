// Command mpppb-roc extracts receiver-operating-characteristic curves for
// the reuse predictors with comparable confidences (sdbp, perceptron,
// mpppb), using the measurement-only mode of Section 6.3: predictions are
// recorded but never applied, with the LLC under plain LRU.
//
//	mpppb-roc -bench gcc_like -seg 1 -predictor mpppb
//	mpppb-roc -bench all -predictor sdbp,perceptron,mpppb -summary
//
// Suite-wide extractions can checkpoint with -journal FILE; -resume
// replays the per-segment sample sets already on disk. A failed segment is
// left out of its pooled curve and the tool exits 3; an unknown
// -predictor is refused with exit 1 before any segment runs.
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
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/prof"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "gcc_like", "benchmark, or 'all'")
		seg        = flag.Int("seg", -1, "segment (0-2), or -1 for all")
		predictors = flag.String("predictor", "sdbp,perceptron,mpppb", "comma-separated predictors")
		warmup     = flag.Uint64("warmup", sim.DefaultWarmup, "warmup instructions")
		measure    = flag.Uint64("measure", sim.DefaultMeasure, "measured instructions")
		check      = flag.Bool("check", false, "run the lockstep verification layer on every cache (slow; a divergence aborts with the access index and set dump)")
		summary    = flag.Bool("summary", false, "print only AUC and band TPRs")
		j          = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for independent runs (1 = serial)")
	)
	jf := journal.RegisterFlags(flag.CommandLine)
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	parallel.SetDefault(*j)

	cfg := mpppb.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = *warmup, *measure
	cfg.Check = *check

	var ids []mpppb.SegmentID
	for _, b := range workload.Benchmarks() {
		if *bench != "all" && b != *bench {
			continue
		}
		for s := 0; s < workload.SegmentsPerBenchmark; s++ {
			if *seg >= 0 && s != *seg {
				continue
			}
			ids = append(ids, mpppb.Segment(b, s))
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "no matching segments")
		os.Exit(1)
	}
	preds := strings.Split(*predictors, ",")
	for i := range preds {
		preds[i] = strings.TrimSpace(preds[i])
	}
	if err := sim.CheckNames("predictor", preds, sim.ConfidenceNames()); err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-roc: -predictor: %v\n", err)
		os.Exit(1)
	}

	type fingerprintConfig struct {
		Tool    string `json:"tool"`
		Warmup  uint64 `json:"warmup"`
		Measure uint64 `json:"measure"`
	}
	fp := journal.Fingerprint{
		Config: journal.ConfigHash(fingerprintConfig{
			Tool:    "mpppb-roc",
			Warmup:  *warmup,
			Measure: *measure,
		}),
		Version: journal.BuildVersion(),
	}
	jrnl, err := jf.Open(fp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-roc: %v\n", err)
		os.Exit(1)
	}
	defer jrnl.Close()

	status := obs.NewRunStatus("mpppb-roc")
	status.SetMeta(fp.Config, jf.Path)
	obsStop, err := of.Start(status)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-roc: %v\n", err)
		os.Exit(1)
	}
	defer obsStop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Segments fan across the pool; samples pool in segment order, so each
	// curve matches a serial run exactly.
	run := &experiments.Run{Ctx: ctx, Journal: jrnl, KeepGoing: true, Status: status}
	for _, pred := range preds {
		keys := make([]string, len(ids))
		for i, id := range ids {
			keys[i] = "roc/" + pred + "/" + id.String()
		}
		perSeg, segErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (stats.PackedROC, error) {
			samples, err := mpppb.ROCSamples(cfg, ids[i], pred)
			if err != nil {
				return stats.PackedROC{}, err
			}
			return stats.PackROC(samples), nil
		})
		if err != nil {
			os.Exit(run.Finish(os.Stderr, "mpppb-roc", jf.Path, err))
		}
		var pool []stats.ROCSample
		for i, packed := range perSeg {
			if segErrs[i] == nil {
				pool = append(pool, packed.Unpack()...)
			}
		}
		curve := stats.ROC(pool)
		fmt.Printf("# %s: %d samples, AUC=%.4f TPR@25%%=%.3f TPR@30%%=%.3f\n",
			pred, len(pool), stats.AUC(curve),
			stats.TPRAtFPR(curve, 0.25), stats.TPRAtFPR(curve, 0.30))
		if *summary {
			continue
		}
		fmt.Println("threshold\tfpr\ttpr")
		for _, p := range curve {
			fmt.Printf("%d\t%.4f\t%.4f\n", p.Threshold, p.FPR, p.TPR)
		}
	}
	if code := run.Finish(os.Stderr, "mpppb-roc", jf.Path, nil); code != 0 {
		os.Exit(code)
	}
}
