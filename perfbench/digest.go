package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"flextm/internal/harness"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// goldenSeeds are the seeds whose digests are checked in: the default seed
// and one held out while the benchmark was written.
var goldenSeeds = []uint64{0, 7}

// simDigest is everything simulated a cell's digest covers.
type simDigest struct {
	Commits     uint64      `json:"commits"`
	Aborts      uint64      `json:"aborts"`
	Cycles      sim.Time    `json:"cycles"`
	Escalations uint64      `json:"escalations"`
	Md          int         `json:"md"`
	Mx          int         `json:"mx"`
	Machine     tmesi.Stats `json:"machine"`
	// Extra folds in a cell's other simulated output: the FlightQL
	// results of a postmortem cell.
	Extra string `json:"extra,omitempty"`
}

// digestResult hashes a cell's simulated output.
func digestResult(res harness.Result, extra []byte) string {
	d := simDigest{
		Commits: res.Commits, Aborts: res.Aborts, Cycles: res.Cycles,
		Escalations: res.Escalations, Md: res.MedianConflicts, Mx: res.MaxConflicts,
		Machine: res.Machine,
	}
	if extra != nil {
		d.Extra = digestBytes(extra)
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain integers always marshal
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// goldenFile is one seed's checked-in digests: workload -> cell id ->
// digest. A fig4-replay grid also carries the digest of its plot bytes
// under plotsID.
type goldenFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

const plotsID = "plots"

func goldenPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// loadGoldens returns the digests of workload for seed, or nil when the
// seed has no golden file.
func loadGoldens(dir, workload string, seed uint64) (map[string]string, error) {
	data, err := os.ReadFile(goldenPath(dir, seed))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenPath(dir, seed), err)
	}
	cells := g.Workloads[workload]
	if cells == nil {
		return nil, fmt.Errorf("golden %s has no workload %q", goldenPath(dir, seed), workload)
	}
	return cells, nil
}

// writeGoldens stores one seed's digests, one line per cell (encoding/json
// sorts map keys, so the file is canonical).
func writeGoldens(dir string, g goldenFile) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Seed), append(data, '\n'), 0o644)
}

// checkDigest compares one digest against the goldens (nil goldens: no
// check, for seeds without a golden file).
func checkDigest(golden map[string]string, id, got string) error {
	if golden == nil {
		return nil
	}
	want, ok := golden[id]
	if !ok {
		return fmt.Errorf("%s: no golden digest", id)
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, golden %s", id, got, want)
	}
	return nil
}
