// Command mpppb-sweep explores sensitivity beyond the paper's figures:
// LLC capacity sweeps and DRAM-latency sweeps per policy, printed as TSV.
// Useful for checking that the reproduction's policy orderings are not an
// artifact of one cache size.
//
//	mpppb-sweep -bench sphinx3_like -policy lru,mpppb,min
//	mpppb-sweep -bench gcc_like -dim mem -policy lru,mpppb
//
// Sweeps checkpoint with -journal FILE; -resume skips the grid cells
// already on disk. Failed cells print NA and the sweep exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"mpppb"
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
		coord    = flag.Bool("coordinator", false, "run as fleet coordinator: serve the work-lease API on -listen and let -worker processes compute the cells")
		workURL  = flag.String("worker", "", "run as fleet worker: lease cells from the coordinator at this URL instead of computing the grid locally")
		ttl      = flag.Duration("lease-ttl", fleet.DefaultTTL, "coordinator lease heartbeat deadline; an unrenewed cell is reassigned after this long")
	)
	jf := journal.RegisterFlags(flag.CommandLine)
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	parallel.SetDefault(*j)

	if !workload.Lookup(*bench) {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	id := mpppb.Segment(*bench, *seg)
	pols := strings.Split(*policies, ",")

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
	if *coord && *workURL != "" {
		fmt.Fprintln(os.Stderr, "mpppb-sweep: -coordinator and -worker are mutually exclusive")
		os.Exit(1)
	}
	if *coord && of.Listen == "" {
		fmt.Fprintln(os.Stderr, "mpppb-sweep: -coordinator needs -listen to serve the work-lease API")
		os.Exit(1)
	}
	if *workURL != "" && jf.Path != "" {
		fmt.Fprintln(os.Stderr, "mpppb-sweep: -worker does not journal locally (the coordinator owns the journal); drop -journal")
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
	var board *fleet.Board
	var routes []obs.Route
	if *coord {
		board = fleet.NewBoard(fleet.BoardConfig{
			Fingerprint: fp,
			Journal:     jrnl,
			Status:      status,
			TTL:         *ttl,
		})
		defer board.Close()
		routes = fleet.Routes(board)
	}
	obsStop, err := of.Start(status, routes...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpppb-sweep: %v\n", err)
		os.Exit(1)
	}
	defer obsStop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("# sweep %s over %s, segment %s\n", *dim, strings.Join(pols, ","), id)
	fmt.Printf("point")
	for _, p := range pols {
		fmt.Printf("\t%s_ipc\t%s_mpki", p, p)
	}
	fmt.Println()
	// The (point, policy) grid is independent runs; fan it across the
	// pool and print in grid order.
	type cell struct{ pt, pol int }
	var cells []cell
	for pi := range points {
		for qi := range pols {
			cells = append(cells, cell{pi, qi})
		}
	}
	key := func(c cell) string {
		return "sweep/" + id.String() + "/" + *dim + "/" + points[c.pt].label + "/" + strings.TrimSpace(pols[c.pol])
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = key(c)
	}
	status.AddCells(keys...)
	simulate := func(i int) (mpppb.Result, error) {
		c := cells[i]
		return mpppb.Run(points[c.pt].cfg, id, strings.TrimSpace(pols[c.pol]))
	}
	var results []mpppb.Result
	var cellErrs []error
	// decode maps fleet raw values (the bytes the journal holds) back into
	// results; JSON round-trips losslessly, so the table below is
	// byte-identical to a local run's.
	decode := func(raws []json.RawMessage) []mpppb.Result {
		out := make([]mpppb.Result, len(raws))
		for i, raw := range raws {
			if cellErrs[i] != nil || raw == nil {
				continue
			}
			if uerr := json.Unmarshal(raw, &out[i]); uerr != nil {
				cellErrs[i] = uerr
			}
		}
		return out
	}
	switch {
	case board != nil:
		// Coordinator: declare the grid and let the fleet compute it;
		// journal hits serve immediately.
		var raws []json.RawMessage
		raws, cellErrs, err = fleet.Coordinate(ctx, board, keys, nil)
		results = decode(raws)
	case *workURL != "":
		var wk *fleet.Worker
		wk, err = fleet.NewWorker(fleet.WorkerConfig{
			URL: *workURL, Fingerprint: fp, Workers: *j, Status: status,
		})
		if err == nil {
			fmt.Fprintf(os.Stderr, "mpppb-sweep: fleet worker %s leasing from %s\n", wk.ID(), *workURL)
			var raws []json.RawMessage
			raws, cellErrs, err = wk.Run(ctx, keys, func(_ context.Context, i int) (any, error) {
				status.CellRunning(keys[i])
				t0 := time.Now()
				res, rerr := simulate(i)
				if rerr != nil {
					return nil, rerr
				}
				status.CellDone(keys[i], obs.CellOK, time.Since(t0))
				return res, nil
			})
			results = decode(raws)
		}
	default:
		opts := parallel.RunOpts{KeepGoing: true}
		results, cellErrs, err = parallel.MapErr(ctx, opts, len(cells), func(ctx context.Context, i int) (mpppb.Result, error) {
			k := keys[i]
			status.CellRunning(k)
			var res mpppb.Result
			if hit, err := jrnl.Load(k, &res); err != nil {
				return mpppb.Result{}, err
			} else if hit {
				status.CellDone(k, obs.CellJournal, 0)
				return res, nil
			}
			t0 := time.Now()
			res, err := simulate(i)
			if err != nil {
				return mpppb.Result{}, err
			}
			status.CellDone(k, obs.CellOK, time.Since(t0))
			return res, jrnl.Record(k, res)
		})
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mpppb-sweep: interrupted")
			if jf.Path != "" {
				fmt.Fprintf(os.Stderr, "mpppb-sweep: completed cells saved; re-run with -journal %s -resume to continue\n", jf.Path)
			}
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if board != nil {
		// Linger until live workers have fetched the final grid (so they
		// can render the same tables) rather than vanishing mid-poll.
		board.SettleWorkers(ctx, 2**ttl)
	}
	failed := 0
	for pi, pt := range points {
		fmt.Printf("%s", pt.label)
		for qi := range pols {
			i := pi*len(pols) + qi
			if cellErrs[i] != nil {
				failed++
				fmt.Printf("\tNA\tNA")
				continue
			}
			res := results[i]
			fmt.Printf("\t%.3f\t%.2f", res.IPC, res.MPKI)
		}
		fmt.Println()
	}
	if failed > 0 {
		for i, c := range cells {
			if cellErrs[i] != nil {
				fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", key(c), cellErrs[i])
				jrnl.RecordFailure(key(c), cellErrs[i])
				status.CellDone(key(c), obs.CellFailed, 0)
			}
		}
		fmt.Fprintf(os.Stderr, "mpppb-sweep: %d of %d cells failed (NA above)\n", failed, len(cells))
		os.Exit(3)
	}
}
