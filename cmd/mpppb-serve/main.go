// Command mpppb-serve runs the predictor as a long-running advice server,
// and doubles as its client.
//
// Server mode (default) accepts streamed access events from concurrent
// clients over the framed binary protocol and answers each batch with
// bypass/placement/promotion advice; every client gets its own predictor
// instance, hash-routed to a shard worker. SIGINT/SIGTERM drains open
// connections (bounded by -drain) before exiting.
//
//	mpppb-serve -addr 127.0.0.1:9417 -mode st -shards 4 -listen :8080
//	mpppb-serve -addr 127.0.0.1:9417 -check   # shadow with the reference engine
//
// Client mode (-connect) generates a benchmark segment's access stream,
// annotates it through a local LLC model, streams it to the server, and
// prints a deterministic advice summary. -verify additionally replays the
// stream through an in-process predictor and fails on any byte mismatch
// with the served advice — the loopback equivalence gate the smoke test
// runs.
//
//	mpppb-serve -connect 127.0.0.1:9417 -bench mcf_like -events 500000 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpppb/internal/core"
	"mpppb/internal/obs"
	"mpppb/internal/serve"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9417", "server mode: TCP listen address")
		connect = flag.String("connect", "", "client mode: server address to stream events to")
		mode    = flag.String("mode", "st", "predictor configuration: st (single-thread), mc (multi-core), table2, adaptive (st with online threshold dueling)")
		sets    = flag.Int("sets", 2048, "LLC sets each predictor instance models (power of two)")
		ways    = flag.Int("ways", 16, "LLC ways of the client-side annotation model")
		shards  = flag.Int("shards", 4, "server mode: shard workers client instances are hash-routed across")
		check   = flag.Bool("check", false, "server mode: shadow every client with the reference engine; divergence fails the stream")
		drain   = flag.Duration("drain", serve.DefaultDrainTimeout, "server mode: shutdown drain bound for open connections")

		bench    = flag.String("bench", "mcf_like", "client mode: benchmark whose access stream to serve")
		seg      = flag.Int("seg", 0, "client mode: benchmark segment index")
		events   = flag.Int("events", 500_000, "client mode: LLC events to stream")
		batch    = flag.Int("batch", 4096, "client mode: events per request batch")
		clientID = flag.Uint64("client-id", 1, "client mode: id used for shard routing")
		verifyIn = flag.Bool("verify", false, "client mode: replay the stream through an in-process predictor and require byte-identical advice")
	)
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	params, err := paramsFor(*mode)
	if err != nil {
		fatal(err)
	}
	if *connect != "" {
		if err := runClient(*connect, params, *bench, *seg, *events, *batch, *sets, *ways, *clientID, *verifyIn); err != nil {
			fatal(err)
		}
		return
	}
	if err := runServer(*addr, params, *sets, *shards, *check, *drain, of); err != nil {
		fatal(err)
	}
}

func paramsFor(mode string) (core.Params, error) {
	switch mode {
	case "st":
		return core.SingleThreadParams(), nil
	case "mc":
		return core.MultiCoreParams(), nil
	case "table2":
		return core.Table2Params(), nil
	case "adaptive":
		// The duel seam lives on Params, so serving adaptive advisors
		// needs no changes anywhere else: every shard's Advisor runs its
		// own duel, and -check shadows it with the reference duel.
		return core.AdaptiveSingleThreadParams(), nil
	default:
		return core.Params{}, fmt.Errorf("unknown -mode %q (want st, mc, table2, or adaptive)", mode)
	}
}

func runServer(addr string, params core.Params, sets, shards int, check bool, drain time.Duration, of *obs.Flags) error {
	st := obs.NewRunStatus("mpppb-serve")
	stop, err := of.Start(st)
	if err != nil {
		return err
	}
	defer stop()

	srv, err := serve.Start(serve.Config{
		Addr: addr, Sets: sets, Params: params,
		Shards: shards, Check: check, DrainTimeout: drain,
		Status: st,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: advising on %s (mode sets=%d shards=%d check=%v); SIGINT drains\n",
		srv.Addr(), sets, shards, check)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "serve: draining")
	if err := srv.Shutdown(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "serve: drained cleanly")
	return nil
}

func runClient(addr string, params core.Params, bench string, seg, n, batch, sets, ways int, clientID uint64, verifyInline bool) error {
	if !workload.Lookup(bench) {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	if err := sim.CheckSegment(seg, false); err != nil {
		return fmt.Errorf("-seg: %v", err)
	}
	gen := workload.NewGenerator(workload.SegmentID{Bench: bench, Seg: seg}, 0)
	events := serve.Annotate(gen, n, sets, ways, params)

	c, err := serve.Dial(addr, clientID)
	if err != nil {
		return err
	}
	defer c.Close()
	if c.Sets != sets {
		return fmt.Errorf("server models %d sets, client annotated for %d (pass matching -sets)", c.Sets, sets)
	}

	var served []byte
	var advice []core.Advice
	var sum summary
	lat := make([]float64, 0, (len(events)+batch-1)/batch)
	start := time.Now()
	for off := 0; off < len(events); off += batch {
		end := min(off+batch, len(events))
		t0 := time.Now()
		if advice, err = c.Advise(events[off:end], advice); err != nil {
			return fmt.Errorf("batch at %d: %w", off, err)
		}
		lat = append(lat, float64(time.Since(t0).Microseconds()))
		for i, a := range advice {
			sum.add(events[off+i], a)
		}
		if verifyInline {
			served = serve.AppendAdviceBatch(served, advice)
		}
	}
	elapsed := time.Since(start)

	if verifyInline {
		adv := core.NewAdvisor(sets, params)
		var inline []byte
		for _, ev := range events {
			inline = serve.AppendAdvice(inline, serve.Apply(adv, ev))
		}
		if string(inline) != string(served) {
			return fmt.Errorf("served advice differs from inline replay (%d vs %d bytes)", len(served), len(inline))
		}
		fmt.Fprintln(os.Stderr, "serve: inline verification ok: advice streams byte-identical")
	}

	// Deterministic summary on stdout (rate goes to stderr).
	fmt.Printf("segment\t%s-%d\nevents\t%d\nhits\t%d\nmisses\t%d\nbypass-advised\t%d\npromote-advised\t%d\nno-promote\t%d\nplacements\t%d %d %d %d\n",
		bench, seg, sum.events, sum.hits, sum.misses, sum.bypasses, sum.promotes, sum.noPromotes,
		sum.placements[0], sum.placements[1], sum.placements[2], sum.placements[3])
	fmt.Fprintf(os.Stderr, "serve: %d events in %v (%.0f events/s)\n",
		sum.events, elapsed.Round(time.Millisecond), float64(sum.events)/elapsed.Seconds())
	if len(lat) > 0 {
		p := stats.Percentiles(lat, 0.50, 0.90, 0.99)
		fmt.Fprintf(os.Stderr, "serve: batch round-trip latency p50=%.0fµs p90=%.0fµs p99=%.0fµs\n",
			p[0], p[1], p[2])
	}
	return nil
}

// summary aggregates served advice into the deterministic client report.
type summary struct {
	events, hits, misses           uint64
	bypasses, promotes, noPromotes uint64
	placements                     [4]uint64
}

func (s *summary) add(ev serve.Event, a core.Advice) {
	s.events++
	if ev.Hit {
		s.hits++
		if a.Promote {
			s.promotes++
		} else {
			s.noPromotes++
		}
		return
	}
	s.misses++
	if a.Bypass {
		s.bypasses++
		return
	}
	s.placements[a.Slot]++
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpppb-serve:", err)
	os.Exit(1)
}
