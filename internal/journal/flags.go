package journal

import (
	"errors"
	"flag"
)

// Flags is the standard checkpoint flag set shared by the
// cmd tools. Register it with RegisterFlags, then Open the journal after
// flag.Parse with the run's fingerprint.
type Flags struct {
	// Path is the -journal flag: where to persist completed cells.
	Path string
	// Resume is the -resume flag: continue an existing journal instead of
	// refusing it.
	Resume bool
}

// RegisterFlags installs -journal and -resume on fs (typically flag.CommandLine) and returns the destination struct.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Path, "journal", "", "append-only JSONL checkpoint file; each completed cell is persisted as it finishes")
	fs.BoolVar(&f.Resume, "resume", false, "resume the -journal file, skipping cells it already holds (refuses a journal from a different config/binary/seed)")
	return f
}

// Open creates or resumes the journal per the parsed flags. With no
// -journal it returns (nil, nil): a nil *Journal disables checkpointing
// throughout the drivers.
func (f *Flags) Open(fp Fingerprint) (*Journal, error) {
	if f.Path == "" {
		if f.Resume {
			return nil, errors.New("journal: -resume requires -journal")
		}
		return nil, nil
	}
	if f.Resume {
		return Resume(f.Path, fp)
	}
	return Create(f.Path, fp)
}
