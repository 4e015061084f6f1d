package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFileRoundTrip(t *testing.T) {
	recs := []Record{
		{PC: 0x400000, Addr: 0x10000, IsWrite: false, NonMem: 3},
		{PC: 0x400004, Addr: 0x10040, IsWrite: true, NonMem: 0},
		{PC: 0x400000, Addr: 0x10000, IsWrite: false, NonMem: 65535}, // escape path
		{PC: 0xffffffffffff0000, Addr: 1, IsWrite: true, NonMem: 62},
		{PC: 0, Addr: 0, IsWrite: false, NonMem: 63}, // escape boundary
	}
	got := roundTrip(t, recs)
	if len(got) != len(recs) {
		t.Fatalf("round trip %d of %d records", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(pcs []uint64, addrs []uint64, nm []uint16) bool {
		n := min(len(pcs), min(len(addrs), len(nm)))
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{PC: pcs[i], Addr: addrs[i], IsWrite: i%3 == 0, NonMem: nm[i]}
		}
		got := roundTrip(t, recs)
		if len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFileCompression(t *testing.T) {
	// A loopy trace (small deltas) should encode in a handful of bytes per
	// record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Add(Record{PC: 0x400000 + uint64(i%4)*4, Addr: 0x10000 + uint64(i)*8, NonMem: 2})
	}
	w.Flush()
	perRec := float64(buf.Len()-len(fileMagic)) / 10000
	if perRec > 5 {
		t.Fatalf("%.1f bytes/record for a loopy trace, want <= 5", perRec)
	}
	if w.Count() != 10000 {
		t.Fatalf("Count = %d", w.Count())
	}
}

func TestReadAllErrors(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadAll(strings.NewReader("NOTMAGIC")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated record after a valid header.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Add(Record{PC: 1, Addr: 2})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestCaptureAndReplay(t *testing.T) {
	recs := []Record{
		{PC: 1, Addr: 10}, {PC: 2, Addr: 20}, {PC: 3, Addr: 30},
	}
	g := NewColumnarReplay("re", ColumnsOf(recs))
	if g.Name() != "re" || g.Len() != 3 {
		t.Fatal("replay metadata wrong")
	}
	var r Record
	for i := 0; i < 7; i++ {
		g.Next(&r)
		if r != recs[i%3] {
			t.Fatalf("replay record %d = %+v", i, r)
		}
	}
	if g.Wraps != 2 {
		t.Fatalf("Wraps = %d, want 2", g.Wraps)
	}
	g.Reset()
	g.Next(&r)
	if r != recs[0] || g.Wraps != 0 {
		t.Fatal("Reset did not restart replay")
	}
}

func TestCaptureFromReplay(t *testing.T) {
	recs := []Record{{PC: 1, Addr: 10}, {PC: 2, Addr: 20}}
	g := NewColumnarReplay("c", ColumnsOf(recs))
	got := Capture(g, 5)
	want := []Record{recs[0], recs[1], recs[0], recs[1], recs[0]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("capture[%d] = %+v", i, got[i])
		}
	}
}

func TestEmptyReplayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty replay accepted")
		}
	}()
	NewColumnarReplay("x", ColumnsOf(nil))
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 1 << 40, -(1 << 40), 1<<63 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag(%d) round trip = %d", d, got)
		}
	}
}
