package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var testFP = Fingerprint{Config: "cfg-abc", Version: "rev-123", Seed: 2017}

type cell struct {
	IPC  float64 `json:"ipc"`
	MPKI float64 `json:"mpki"`
}

func mustCreate(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Create(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestCreateResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := mustCreate(t, path)
	want := cell{IPC: 1.25, MPKI: 10.5}
	if err := j.Record("single/gcc_like-0", want); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordFailure("single/mcf_like-1", errors.New("cell blew up")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Resume(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got cell
	ok, err := r.Load("single/gcc_like-0", &got)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("round-trip %+v, want %+v", got, want)
	}
	// A failed cell must miss so the driver recomputes it.
	if ok, _ := r.Load("single/mcf_like-1", &got); ok {
		t.Fatal("failed cell served as completed")
	}
	// ...but still count as a known key.
	if r.Len() != 2 {
		t.Fatalf("Len %d, want 2", r.Len())
	}
	// Appending after resume works.
	if err := r.Record("single/mcf_like-1", cell{IPC: 0.5}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.Load("single/mcf_like-1", &got); !ok || got.IPC != 0.5 {
		t.Fatalf("post-resume record not visible: ok=%v got=%+v", ok, got)
	}
}

func TestLastEntryWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := mustCreate(t, path)
	// A failure followed by a success on a later -resume: the trail stays
	// in the file, the final state is the success.
	j.RecordFailure("k", errors.New("first attempt failed"))
	j.Record("k", cell{IPC: 2})
	j.Close()

	r, err := Resume(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got cell
	if ok, _ := r.Load("k", &got); !ok || got.IPC != 2 {
		t.Fatalf("last entry did not win: ok=%v got=%+v", ok, got)
	}
	// And the reverse: a success later superseded by a failure misses.
	path2 := filepath.Join(t.TempDir(), "j2.jsonl")
	j2 := mustCreate(t, path2)
	j2.Record("k", cell{IPC: 2})
	j2.RecordFailure("k", errors.New("went bad"))
	j2.Close()
	r2, err := Resume(path2, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if ok, _ := r2.Load("k", &got); ok {
		t.Fatal("superseding failure ignored")
	}
}

func TestPartialTrailingLineTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := mustCreate(t, path)
	j.Record("done", cell{IPC: 1})
	j.Close()
	// Simulate a crash mid-write: garbage with no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"half-writ`)
	f.Close()

	r, err := Resume(path, testFP)
	if err != nil {
		t.Fatalf("resume after partial write: %v", err)
	}
	var got cell
	if ok, _ := r.Load("done", &got); !ok {
		t.Fatal("good prefix lost")
	}
	// The partial line must be gone from disk, and appends must produce a
	// file that parses cleanly end to end.
	if err := r.Record("next", cell{IPC: 3}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Resume(path, testFP)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer r2.Close()
	if ok, _ := r2.Load("next", &got); !ok || got.IPC != 3 {
		t.Fatal("append after truncation corrupted the file")
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := mustCreate(t, path)
	j.Record("a", cell{IPC: 1})
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A newline-terminated garbage line followed by a good record is
	// corruption, not a crash artifact.
	f.WriteString("not json at all\n")
	f.Close()
	j2, err := Resume(path, testFP)
	if err == nil {
		t.Fatal("resumed a corrupt journal")
	}
	j2.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
}

func TestFingerprintMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	mustCreate(t, path).Close()
	for _, fp := range []Fingerprint{
		{Config: "other", Version: testFP.Version, Seed: testFP.Seed},
		{Config: testFP.Config, Version: "other", Seed: testFP.Seed},
		{Config: testFP.Config, Version: testFP.Version, Seed: 99},
	} {
		_, err := Resume(path, fp)
		if !errors.Is(err, ErrMismatch) {
			t.Fatalf("Resume with %+v: err=%v, want ErrMismatch", fp, err)
		}
	}
}

func TestCreateRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	mustCreate(t, path).Close()
	_, err := Create(path, testFP)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("err=%v, want ErrExists", err)
	}
}

func TestNotAJournalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "random.txt")
	os.WriteFile(path, []byte("hello world\n"), 0o644)
	_, err := Resume(path, testFP)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
}

func TestNilJournalIsDisabled(t *testing.T) {
	var j *Journal
	if err := j.Record("k", cell{}); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordFailure("k", errors.New("x")); err != nil {
		t.Fatal(err)
	}
	var v cell
	if ok, err := j.Load("k", &v); ok || err != nil {
		t.Fatalf("nil Load = (%v, %v), want miss", ok, err)
	}
	if j.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateKeyTrailsAcrossResume pins last-entry-wins for both
// duplicate-key orders a real campaign produces: a cell that succeeded and
// was later superseded by a failure record (ok→failed: the final state is
// failed, so resume recomputes it), and a cell that failed and then
// succeeded when a resume recomputed it (failed→ok: resume serves the value). The full
// trail stays in the file; only the last entry per key counts.
func TestDuplicateKeyTrailsAcrossResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := mustCreate(t, path)
	// ok → failed
	if err := j.Record("cell/ok-then-failed", cell{IPC: 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordFailure("cell/ok-then-failed", errors.New("later invalidated")); err != nil {
		t.Fatal(err)
	}
	// failed → ok
	if err := j.RecordFailure("cell/failed-then-ok", errors.New("first attempt died")); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("cell/failed-then-ok", cell{IPC: 2.5, MPKI: 3.25}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Resume(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got cell
	if ok, _ := r.Load("cell/ok-then-failed", &got); ok {
		t.Fatal("ok-then-failed: the trailing failure record must win")
	}
	if _, ok := r.LoadRaw("cell/ok-then-failed"); ok {
		t.Fatal("ok-then-failed: LoadRaw served a cell whose last entry is failed")
	}
	if ok, _ := r.Load("cell/failed-then-ok", &got); !ok || got != (cell{IPC: 2.5, MPKI: 3.25}) {
		t.Fatalf("failed-then-ok: ok=%v got=%+v, want the recomputed value", ok, got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct keys", r.Len())
	}
}

// TestResumeHeaderOnlyJournal: a run that crashed after Create but before
// any cell completed leaves a header-only file; resume must accept it as
// an empty (not corrupt) journal and append to it normally.
func TestResumeHeaderOnlyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	mustCreate(t, path).Close()

	r, err := Resume(path, testFP)
	if err != nil {
		t.Fatalf("resuming a header-only journal: %v", err)
	}
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	if err := r.Record("cell/first", cell{IPC: 1.5}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Resume(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	var got cell
	if ok, _ := r2.Load("cell/first", &got); !ok || got.IPC != 1.5 {
		t.Fatalf("post-header-only append lost: ok=%v got=%+v", ok, got)
	}
}

// TestRecordRawLoadRaw: the fleet merge path writes pre-marshaled values
// byte-for-byte and refuses partial payloads; LoadRaw serves the exact
// bytes back across a resume.
func TestRecordRawLoadRaw(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := mustCreate(t, path)
	raw := []byte(`{"ipc":1.125,"mpki":7.25}`)
	if err := j.RecordRaw("cell/raw", raw); err != nil {
		t.Fatal(err)
	}
	// A truncated worker upload must never reach the file.
	if err := j.RecordRaw("cell/torn", []byte(`{"ipc":1.`)); err == nil {
		t.Fatal("malformed raw value accepted")
	}
	if err := j.RecordRaw("cell/empty", nil); err == nil {
		t.Fatal("empty raw value accepted")
	}
	got, ok := j.LoadRaw("cell/raw")
	if !ok || string(got) != string(raw) {
		t.Fatalf("LoadRaw = %q ok=%v, want %q", got, ok, raw)
	}
	// Typed Load decodes the same record.
	var c cell
	if ok, err := j.Load("cell/raw", &c); err != nil || !ok || c.IPC != 1.125 {
		t.Fatalf("Load over raw record: ok=%v err=%v c=%+v", ok, err, c)
	}
	j.Close()

	r, err := Resume(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok = r.LoadRaw("cell/raw")
	if !ok || string(got) != string(raw) {
		t.Fatalf("post-resume LoadRaw = %q ok=%v, want %q byte-identical", got, ok, raw)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (refused records must not count)", r.Len())
	}

	// Nil journal: raw path is disabled like everything else.
	var nilJ *Journal
	if err := nilJ.RecordRaw("k", raw); err != nil {
		t.Fatal("nil RecordRaw errored")
	}
	if _, ok := nilJ.LoadRaw("k"); ok {
		t.Fatal("nil LoadRaw hit")
	}
}

func TestConfigHashStable(t *testing.T) {
	type cfg struct {
		Warmup  uint64
		Benches []string
	}
	a := ConfigHash(cfg{Warmup: 100, Benches: []string{"gcc"}})
	b := ConfigHash(cfg{Warmup: 100, Benches: []string{"gcc"}})
	c := ConfigHash(cfg{Warmup: 200, Benches: []string{"gcc"}})
	if a != b {
		t.Fatal("equal configs hash differently")
	}
	if a == c {
		t.Fatal("different configs collide")
	}
}
