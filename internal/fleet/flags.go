package fleet

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mpppb/internal/journal"
	"mpppb/internal/obs"
)

// Flags holds the fleet flags the campaign tools share.
type Flags struct {
	// Coordinator is the -coordinator flag: serve the work-lease API on
	// -listen and let workers compute the cells.
	Coordinator bool
	// Worker is the -worker flag: the coordinator URL to lease cells from.
	Worker string
	// TTL is the -lease-ttl flag: the coordinator's lease heartbeat
	// deadline.
	TTL time.Duration
}

// RegisterFlags installs -coordinator, -worker and -lease-ttl on fs
// (typically flag.CommandLine) and returns the destination struct.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Coordinator, "coordinator", false, "run as fleet coordinator: serve the work-lease API on -listen and let -worker processes compute the cells")
	fs.StringVar(&f.Worker, "worker", "", "run as fleet worker: lease cells from the coordinator at this URL instead of computing the grid locally")
	fs.DurationVar(&f.TTL, "lease-ttl", DefaultTTL, "coordinator lease heartbeat deadline; an unrenewed cell is reassigned after this long")
	return f
}

// Check rejects the flag combinations a fleet run cannot honour, given
// the parsed -listen and -journal values. Call it before opening the
// journal, so a refused worker leaves no journal file behind.
func (f *Flags) Check(listen, journalPath string) error {
	switch {
	case f.Coordinator && f.Worker != "":
		return errors.New("-coordinator and -worker are mutually exclusive")
	case f.Coordinator && listen == "":
		return errors.New("-coordinator needs -listen to serve the work-lease API")
	case f.Worker != "" && journalPath != "":
		return errors.New("-worker does not journal locally (the coordinator owns the journal); drop -journal")
	}
	return nil
}

// Open builds what the flags select: a coordinator's board (merging into
// j and mirroring into st), with the routes to mount on the -listen
// server; a worker computing up to workers cells at once; or, for a local
// run, neither. The caller closes a non-nil board.
func (f *Flags) Open(fp journal.Fingerprint, j *journal.Journal, st *obs.RunStatus, workers int) (*Board, *Worker, []obs.Route, error) {
	switch {
	case f.Coordinator:
		b := NewBoard(BoardConfig{Fingerprint: fp, Journal: j, Status: st, TTL: f.TTL})
		return b, nil, Routes(b), nil
	case f.Worker != "":
		w, err := NewWorker(WorkerConfig{URL: f.Worker, Fingerprint: fp, Workers: workers, Status: st})
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "fleet worker %s leasing from %s\n", w.ID(), f.Worker)
		return nil, w, nil, nil
	}
	return nil, nil, nil, nil
}
