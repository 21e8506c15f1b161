// Package bench defines the BENCH_<date>.json performance-snapshot
// schema shared by cmd/repro (which writes snapshots) and cmd/benchdiff
// (which compares them in CI): suite wall time, simulator throughput,
// allocation pressure and per-experiment wall times, plus the
// configuration that produced them so snapshots are comparable.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Snapshot is one recorded run of the experiment suite.
type Snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SF         float64 `json:"sf"` // 0 = per-experiment defaults
	// Workers and Shards are the EFFECTIVE pool sizes the run used
	// (defaults resolved to GOMAXPROCS), not the raw flag values.
	Workers int  `json:"workers"`
	Shards  int  `json:"shards"`
	Cached  bool `json:"cached"`

	SuiteWallSeconds float64 `json:"suite_wall_seconds"`
	Events           uint64  `json:"events"`
	EventsPerSec     float64 `json:"events_per_sec"`
	Allocs           uint64  `json:"allocs"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	AllocBytes       uint64  `json:"alloc_bytes"`
	// AllocBytesPerEvent is heap bytes allocated per simulated event —
	// the size-weighted companion to AllocsPerEvent, which catches a
	// refactor that trades many small allocations for fewer huge ones.
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event,omitempty"`

	CacheRequests int64 `json:"cache_requests,omitempty"`
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`

	Experiments []Experiment `json:"experiments"`
}

// Experiment is one experiment's wall time within the run.
type Experiment struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// Load reads and decodes a snapshot file.
func Load(path string) (Snapshot, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return Snapshot{}, fmt.Errorf("bench: %s is a directory, want a BENCH_<date>.json snapshot file", path)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return Snapshot{}, fmt.Errorf("bench: decoding %s: %w", path, err)
	}
	return s, nil
}

// WriteFile marshals the snapshot to path. An existing file is never
// silently overwritten: without overwrite the write fails and the caller
// must pick another path (or pass force), so a committed baseline or an
// earlier same-date snapshot survives a careless re-run.
func (s Snapshot) WriteFile(path string, overwrite bool) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("bench: %s is a directory; point -bench-o at a file path for the snapshot", path)
	}
	if !overwrite {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("bench: %s already exists; write to another path (-bench-o) or force the overwrite (-bench-force)", path)
		}
	}
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
