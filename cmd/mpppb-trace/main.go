// Command mpppb-trace captures, inspects, and replays binary trace files.
// Traces decouple workload generation from simulation: capture a synthetic
// suite segment once and replay it, or convert externally collected
// program traces into this format and drive the simulator with them.
//
//	mpppb-trace -capture mcf_like-0 -n 2000000 -o mcf.trc
//	mpppb-trace -stats mcf.trc
//	mpppb-trace -replay mcf.trc -policy lru,mpppb,min
//	mpppb-trace -ingest mytrace.csv -o mytrace.trc   # external traces
//	mpppb-trace -ingest mytrace.jsonl -o mytrace.trc
//	mpppb-trace -export mcf.trc > mcf.csv
//
// -ingest converts externally collected CSV or JSONL traces (format
// auto-detected, or forced with -format) to the binary format with strict
// parse errors; the resulting file runs anywhere a benchmark name is
// accepted via the trace:<path> workload family.
//
// Replays checkpoint with -journal FILE; entries are keyed by a content
// hash of the trace, so -resume refuses to reuse results if the trace
// file changed underneath the journal. Ingests are journaled the same
// way, keyed by the source file's content hash.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/prof"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

func main() {
	var (
		capture  = flag.String("capture", "", "segment to capture, e.g. mcf_like-0")
		n        = flag.Int("n", 1_000_000, "records to capture")
		out      = flag.String("o", "", "output trace file (with -capture)")
		statsF   = flag.String("stats", "", "trace file to summarize")
		replay   = flag.String("replay", "", "trace file to simulate")
		ingest   = flag.String("ingest", "", "external text trace (CSV/JSONL) to convert to binary (with -o)")
		format   = flag.String("format", "auto", "-ingest input format: auto, csv or jsonl")
		export   = flag.String("export", "", "binary trace to dump as CSV to stdout")
		policies = flag.String("policy", "lru,mpppb", "policies for -replay")
		warmup   = flag.Uint64("warmup", sim.DefaultWarmup, "warmup instructions for -replay")
		measure  = flag.Uint64("measure", sim.DefaultMeasure, "measured instructions for -replay")
		check    = flag.Bool("check", false, "run the lockstep verification layer on every cache (slow; a divergence aborts with the access index and set dump)")
		j        = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for independent runs (1 = serial)")
	)
	jf := journal.RegisterFlags(flag.CommandLine)
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	parallel.SetDefault(*j)

	status := obs.NewRunStatus("mpppb-trace")
	obsStop, err := of.Start(status)
	if err != nil {
		fatal("%v", err)
	}
	defer obsStop()

	switch {
	case *ingest != "":
		src := *ingest
		if *out == "" {
			fatal("need -o with -ingest")
		}
		data, err := os.ReadFile(src)
		if err != nil {
			fatal("%v", err)
		}
		f, err := trace.ParseFormat(*format)
		if err != nil {
			fatal("%v", err)
		}
		// The journal key is the source file's content hash: re-running
		// the same ingest is a hit, a changed source is a different key,
		// and a hit only skips work if the output file still carries the
		// recorded bytes.
		sum := sha256.Sum256(data)
		srcHash := hex.EncodeToString(sum[:8])
		key := "ingest/" + srcHash
		type ingestConfig struct {
			Tool   string `json:"tool"`
			Source string `json:"source"`
		}
		type ingestRes struct {
			Records int    `json:"records"`
			OutHash string `json:"out_hash"`
		}
		fp := journal.Fingerprint{
			Config:  journal.ConfigHash(ingestConfig{Tool: "mpppb-trace-ingest", Source: srcHash}),
			Version: journal.BuildVersion(),
		}
		jrnl, err := jf.Open(fp)
		if err != nil {
			fatal("%v", err)
		}
		defer jrnl.Close()
		status.SetMeta(fp.Config, jf.Path)
		var prev ingestRes
		if hit, err := jrnl.Load(key, &prev); err != nil {
			fatal("%v", err)
		} else if hit {
			if cur, err := os.ReadFile(*out); err == nil {
				curSum := sha256.Sum256(cur)
				if hex.EncodeToString(curSum[:8]) == prev.OutHash {
					fmt.Printf("ingested %d records from %s to %s (journal hit)\n", prev.Records, src, *out)
					return
				}
			}
		}
		recs, err := trace.Ingest(src, data, f)
		if err != nil {
			fatal("%v", err)
		}
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			fatal("%v", err)
		}
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				fatal("%v", err)
			}
		}
		if err := w.Flush(); err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fatal("%v", err)
		}
		outSum := sha256.Sum256(buf.Bytes())
		if err := jrnl.Record(key, ingestRes{Records: len(recs), OutHash: hex.EncodeToString(outSum[:8])}); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("ingested %d records from %s to %s\n", len(recs), src, *out)

	case *export != "":
		if err := trace.WriteCSV(os.Stdout, load(*export)); err != nil {
			fatal("%v", err)
		}

	case *capture != "":
		if *out == "" {
			fatal("need -o with -capture")
		}
		id, err := workload.ParseSegmentID(*capture)
		if err != nil {
			fatal("%v", err)
		}
		gen := workload.NewGenerator(id, workload.CoreBase(0))
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w, err := trace.NewWriter(f)
		if err != nil {
			fatal("%v", err)
		}
		var rec trace.Record
		var instr uint64
		for i := 0; i < *n; i++ {
			gen.Next(&rec)
			if err := w.Add(rec); err != nil {
				fatal("%v", err)
			}
			instr += rec.Instructions()
		}
		if err := w.Flush(); err != nil {
			fatal("%v", err)
		}
		fi, _ := f.Stat()
		fmt.Printf("captured %d records (%d instructions) of %s to %s (%d bytes, %.2f B/record)\n",
			w.Count(), instr, id, *out, fi.Size(), float64(fi.Size())/float64(w.Count()))

	case *statsF != "":
		recs := load(*statsF)
		var instr, writes uint64
		blockIDs := make([]uint64, len(recs))
		blocks := map[uint64]struct{}{}
		pcs := map[uint64]struct{}{}
		for i, r := range recs {
			instr += r.Instructions()
			if r.IsWrite {
				writes++
			}
			blockIDs[i] = r.Block()
			blocks[r.Block()] = struct{}{}
			pcs[r.PC] = struct{}{}
		}
		fmt.Printf("records:        %d\n", len(recs))
		fmt.Printf("instructions:   %d\n", instr)
		fmt.Printf("stores:         %d (%.1f%%)\n", writes, 100*float64(writes)/float64(len(recs)))
		fmt.Printf("distinct PCs:   %d\n", len(pcs))
		fmt.Printf("footprint:      %d blocks (%.2f MB)\n", len(blocks),
			float64(len(blocks))*trace.BlockSize/(1<<20))
		// LRU stack-distance profile: the locality fingerprint the rdmodel
		// workload family parameterizes on.
		bounds := []uint64{16, 256, 4096, 65536}
		counts, cold := stats.ReuseHistogram(blockIDs, bounds, 0)
		fmt.Printf("reuse distance: ")
		lo := uint64(0)
		for i, b := range bounds {
			fmt.Printf("(%d,%d]=%.1f%% ", lo, b, 100*float64(counts[i])/float64(len(recs)))
			lo = b
		}
		fmt.Printf(">%d=%.1f%% cold=%.1f%%\n", lo,
			100*float64(counts[len(bounds)])/float64(len(recs)),
			100*float64(cold)/float64(len(recs)))

	case *replay != "":
		pols := strings.Split(*policies, ",")
		for i := range pols {
			pols[i] = strings.TrimSpace(pols[i])
		}
		if err := sim.CheckNames("policy", pols, append(sim.PolicyNames(), "min")); err != nil {
			fatal("-policy: %v", err)
		}
		recs, hash := loadHashed(*replay)
		// Transpose once; every per-policy replay cursor shares the same
		// read-only column store.
		cols := trace.ColumnsOf(recs)
		cfg := sim.SingleThreadConfig()
		cfg.Warmup, cfg.Measure = *warmup, *measure
		cfg.Check = *check

		type fingerprintConfig struct {
			Tool    string `json:"tool"`
			Trace   string `json:"trace"`
			Warmup  uint64 `json:"warmup"`
			Measure uint64 `json:"measure"`
		}
		fp := journal.Fingerprint{
			Config: journal.ConfigHash(fingerprintConfig{
				Tool:    "mpppb-trace",
				Trace:   hash,
				Warmup:  *warmup,
				Measure: *measure,
			}),
			Version: journal.BuildVersion(),
		}
		jrnl, err := jf.Open(fp)
		if err != nil {
			fatal("%v", err)
		}
		defer jrnl.Close()
		status.SetMeta(fp.Config, jf.Path)

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()

		// Policies replay independently: each cell gets its own replay
		// cursor over the shared (read-only) column store.
		keys := make([]string, len(pols))
		for i, pname := range pols {
			keys[i] = "replay/" + hash + "/" + pname
		}
		run := &experiments.Run{Ctx: ctx, Journal: jrnl, KeepGoing: true, Status: status}
		results, polErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (replayRes, error) {
			return replayCell(cfg, *replay, cols, pols[i])
		})
		if err == nil {
			for i, pname := range pols {
				if polErrs[i] != nil {
					fmt.Printf("%-14s FAILED: %v\n", pname, polErrs[i])
					continue
				}
				fmt.Printf("%-14s IPC %.3f  MPKI %.2f  (replay wrapped %d times)\n",
					pname, results[i].Res.IPC, results[i].Res.MPKI, results[i].Wraps)
			}
		}
		if code := run.Finish(os.Stderr, "mpppb-trace", jf.Path, err); code != 0 {
			os.Exit(code)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// replayRes is one replay cell's journaled value.
type replayRes struct {
	Res   sim.Result `json:"res"`
	Wraps uint64     `json:"wraps"`
}

// replayCell replays the trace columns under one policy ("min" included)
// through a fresh cursor.
func replayCell(cfg sim.Config, name string, cols *trace.Columns, pname string) (replayRes, error) {
	gen := trace.NewColumnarReplay(name, cols)
	res, err := sim.RunNamed(cfg, gen, pname)
	return replayRes{Res: res, Wraps: gen.Wraps}, err
}

func load(path string) []trace.Record {
	recs, _ := loadHashed(path)
	return recs
}

// loadHashed reads a whole binary trace and returns its records along with
// a short content hash identifying the file's exact bytes (used to key
// replay journal entries, so stale results can't be replayed against a
// modified trace).
func loadHashed(path string) ([]trace.Record, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	recs, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		fatal("%v", err)
	}
	sum := sha256.Sum256(data)
	return recs, hex.EncodeToString(sum[:8])
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpppb-trace: "+format+"\n", args...)
	os.Exit(1)
}
