package fleet

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// TestFlags: the shared fleet flags reject the three combinations a fleet
// run cannot honour and open the board or worker they select.
func TestFlags(t *testing.T) {
	parse := func(args ...string) *Flags {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		f := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		args            []string
		listen, journal string
		bad             string
	}{
		{nil, "", "run.journal", ""},
		{[]string{"-coordinator", "-worker", "h:1"}, ":8080", "", "mutually exclusive"},
		{[]string{"-coordinator"}, "", "", "needs -listen"},
		{[]string{"-worker", "h:1"}, "", "run.journal", "drop -journal"},
		{[]string{"-coordinator"}, ":8080", "run.journal", ""},
	} {
		err := parse(tc.args...).Check(tc.listen, tc.journal)
		if (err == nil) != (tc.bad == "") || err != nil && !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%q listen=%q journal=%q: Check = %v, want %q", tc.args, tc.listen, tc.journal, err, tc.bad)
		}
	}
	if b, w, routes, err := parse().Open(testFP, nil, nil, 1); b != nil || w != nil || routes != nil || err != nil {
		t.Errorf("local run opened (%v, %v, %v, %v)", b, w, routes, err)
	}
	b, _, routes, err := parse("-coordinator", "-lease-ttl", "3s").Open(testFP, nil, nil, 1)
	if err != nil || b == nil || len(routes) == 0 || b.TTL() != 3*time.Second {
		t.Fatalf("-coordinator opened (%v, %d routes, %v), want a 3s board with routes", b, len(routes), err)
	}
	b.Close()
	if _, w, _, err := parse("-worker", "h:1").Open(testFP, nil, nil, 2); err != nil || w == nil {
		t.Fatalf("-worker opened (%v, %v), want a worker", w, err)
	}
}
