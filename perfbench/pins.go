package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"strconv"
)

// Pinned outputs: for each workload and pinned seed, a hash of every op's
// deterministic result as this module computed it when the benchmark was
// defined. An op whose result differs from its pin fails.
//
//go:embed testdata/pins
var pinFS embed.FS

// pinFile maps a seed (decimal) to op key to pin hash.
type pinFile map[string]map[string]string

func pinPath(workload string) string { return "testdata/pins/" + workload + ".json" }

// loadPins returns the pins of seed for workload, or nil when the seed is
// not pinned.
func loadPins(workload string, seed uint64) (map[string]string, error) {
	data, err := pinFS.ReadFile(pinPath(workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var pf pinFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("pins for %s: %w", workload, err)
	}
	return pf[strconv.FormatUint(seed, 10)], nil
}

// pinHash is the FNV-1a 64 hash of an outcome's rendering.
func pinHash(rendered string) string {
	h := fnv.New64a()
	h.Write([]byte(rendered))
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordPins merges one seed's pins into the pin file at path (a path in
// the source tree, so the next build embeds it).
func recordPins(path string, seed uint64, pins map[string]string) error {
	pf := pinFile{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &pf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	pf[strconv.FormatUint(seed, 10)] = pins
	out, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
