package sim

import (
	"os"
	"path/filepath"
	"testing"

	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// Family wrap-boundary audit: the three new workload families (weighted
// mix, rd-model, external trace) feed the same batchReader cursor as the
// core suite, so their captured streams must be bit-identical across the
// three delivery paths even when refills straddle replay wraps, and live
// family generators must produce bit-identical results run to run.

func familyWrapRecords(t *testing.T, bench string) []trace.Record {
	t.Helper()
	// 997 is prime: wraps never align with batch refills.
	g := workload.NewGenerator(workload.SegmentID{Bench: bench, Seg: 1}, workload.CoreBase(0))
	return trace.Capture(g, 997)
}

func TestFamilyWrapStraddlingDeliveryPathsIdentical(t *testing.T) {
	// An ingested external trace is itself one of the families under
	// test: build it from a captured core segment.
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "ext.trc")
	func() {
		g := workload.NewGenerator(workload.SegmentID{Bench: "sjeng_like", Seg: 0}, 0)
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := trace.NewWriter(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range trace.Capture(g, 1499) {
			if err := w.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}()

	pf, err := Policy("mpppb")
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"mix_oltp", "rd_server", "trace:" + tracePath} {
		t.Run(bench, func(t *testing.T) {
			recs := familyWrapRecords(t, bench)
			cols := trace.ColumnsOf(recs)
			cfg := SingleThreadConfig()
			// Park the phase boundary 2 records before the first wrap so
			// the first measured refill straddles it (family records carry
			// NonMem, so count instructions, not records).
			var instr uint64
			for _, r := range recs[:len(recs)-2] {
				instr += r.Instructions()
			}
			var total uint64
			for _, r := range recs {
				total += r.Instructions()
			}
			cfg.Warmup, cfg.Measure = instr, 3*total

			perRecord := RunSingle(cfg, nextOnlyGen{trace.NewColumnarReplay("wrap", cols)}, pf).Deterministic()
			rowGen := rowOnlyGen{trace.NewColumnarReplay("wrap", cols)}
			rowMajor := RunSingle(cfg, rowGen, pf).Deterministic()
			columnar := RunSingle(cfg, trace.NewColumnarReplay("wrap", cols), pf).Deterministic()

			if perRecord != rowMajor {
				t.Errorf("per-record vs row-major:\n%+v\n%+v", perRecord, rowMajor)
			}
			if perRecord != columnar {
				t.Errorf("per-record vs columnar:\n%+v\n%+v", perRecord, columnar)
			}
			if rowGen.g.Wraps < 2 {
				t.Fatalf("trace wrapped %d times; run too short", rowGen.g.Wraps)
			}
		})
	}
}

// TestFamilyRunsDeterministic: two independent live generators of the
// same family segment produce bit-identical simulation results, for every
// registered family benchmark.
func TestFamilyRunsDeterministic(t *testing.T) {
	pf, err := Policy("mpppb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 20000, 60000
	for _, bench := range workload.Families() {
		id := workload.SegmentID{Bench: bench, Seg: 1}
		a := RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), pf).Deterministic()
		b := RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), pf).Deterministic()
		if a != b {
			t.Errorf("%s: two runs differ:\n%+v\n%+v", bench, a, b)
		}
	}
}
