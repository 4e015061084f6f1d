// Command mpppb-roc extracts receiver-operating-characteristic curves for
// the reuse predictors with comparable confidences (sdbp, perceptron,
// mpppb), using the measurement-only mode of Section 6.3: predictions are
// recorded but never applied, with the LLC under plain LRU.
//
//	mpppb-roc -bench gcc_like -seg 1 -predictor mpppb
//	mpppb-roc -bench all -predictor sdbp,perceptron,mpppb -summary
//
// Suite-wide extractions can checkpoint with -journal FILE; -resume
// replays the per-segment sample sets already on disk.
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
	"time"

	"mpppb"
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

	exit := 0
	for _, pred := range strings.Split(*predictors, ",") {
		pred = strings.TrimSpace(pred)
		// Segments fan across the pool; samples pool in segment order, so
		// the curve matches a serial run exactly.
		for _, id := range ids {
			status.AddCells("roc/" + pred + "/" + id.String())
		}
		opts := parallel.RunOpts{KeepGoing: true}
		perSeg, segErrs, err := parallel.MapErr(ctx, opts, len(ids), func(ctx context.Context, i int) (stats.PackedROC, error) {
			key := "roc/" + pred + "/" + ids[i].String()
			status.CellRunning(key)
			var packed stats.PackedROC
			if hit, err := jrnl.Load(key, &packed); err != nil {
				return stats.PackedROC{}, err
			} else if hit {
				status.CellDone(key, obs.CellJournal, 0)
				return packed, nil
			}
			t0 := time.Now()
			samples, err := mpppb.ROCSamples(cfg, ids[i], pred)
			if err != nil {
				return stats.PackedROC{}, err
			}
			packed = stats.PackROC(samples)
			status.CellDone(key, obs.CellOK, time.Since(t0))
			return packed, jrnl.Record(key, packed)
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "mpppb-roc: interrupted")
				if jf.Path != "" {
					fmt.Fprintf(os.Stderr, "mpppb-roc: completed segments saved; re-run with -journal %s -resume to continue\n", jf.Path)
				}
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var pool []stats.ROCSample
		for i, packed := range perSeg {
			if segErrs[i] != nil {
				fmt.Fprintf(os.Stderr, "FAILED roc/%s/%s: %v\n", pred, ids[i], segErrs[i])
				jrnl.RecordFailure("roc/"+pred+"/"+ids[i].String(), segErrs[i])
				status.CellDone("roc/"+pred+"/"+ids[i].String(), obs.CellFailed, 0)
				exit = 3
				continue
			}
			pool = append(pool, packed.Unpack()...)
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
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "mpppb-roc: some segments failed; their samples are missing from the pooled curves")
		os.Exit(exit)
	}
}
