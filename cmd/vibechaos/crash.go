package main

import (
	"fmt"
	"os"
	"path/filepath"

	"vibepm/internal/chaos"
	"vibepm/internal/store"
)

// crashReport is the JSON outcome of a -crash-trials run. Like the
// soak report it is deterministic for a fixed seed: the store's byte
// stream is a pure function of the seeded records, so the probe size,
// crash offsets and per-trial outcomes never vary across runs.
type crashReport struct {
	Trials  int   `json:"trials"`
	Records int   `json:"records_per_trial"`
	Seed    int64 `json:"seed"`
	// StreamBytes is what one uncut trial writes: WAL segments, snapshot
	// temps and partition temps together.
	StreamBytes int64 `json:"stream_bytes_per_trial"`
	Crashed     int   `json:"crashed"`
	// CutsByFileKind counts the crashed trials by the kind of file the
	// cut landed in.
	CutsByFileKind map[string]int `json:"cuts_by_file_kind"`
	Acked          int            `json:"acked_total"`
	Recovered      int            `json:"recovered_total"`
	// Violations counts trials where recovery broke the contract
	// (acked data lost, phantom records, a leftover temp file, or a
	// reopen failure). A healthy build reports 0.
	Violations int      `json:"violations"`
	Failures   []string `json:"failures"`
}

// runCrashTrials sweeps trial crash offsets evenly across the byte
// stream of a seeded run that ingests into a tiered store and
// checkpoints as it goes, verifying after each injected crash the
// contract chaos.RunCrashTrial documents.
func runCrashTrials(trials int, seed int64, records int) (*crashReport, error) {
	root, err := os.MkdirTemp("", "vibechaos-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	base := chaos.CrashTrialConfig{
		Seed:            seed,
		Records:         records,
		CheckpointEvery: 12,
		Tiered:          true,
		SegmentBytes:    1 << 11,
		Policy:          store.SyncAlways,
	}
	probe := base
	probe.Dir = filepath.Join(root, "probe")
	probeRes, err := chaos.RunCrashTrial(probe)
	if err != nil {
		return nil, fmt.Errorf("probe trial: %w", err)
	}
	out := &crashReport{
		Trials:         trials,
		Records:        records,
		Seed:           seed,
		StreamBytes:    probeRes.Bytes,
		CutsByFileKind: map[string]int{},
		Failures:       []string{},
	}
	if trials < 1 {
		return out, nil
	}
	stride := probeRes.Bytes / int64(trials)
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < trials; i++ {
		cfg := base
		cfg.Dir = filepath.Join(root, fmt.Sprintf("trial-%04d", i))
		cfg.CrashAfterBytes = 1 + int64(i)*stride
		res, err := chaos.RunCrashTrial(cfg)
		if err != nil {
			out.Violations++
			out.Failures = append(out.Failures,
				fmt.Sprintf("trial %d (crash at byte %d): %v", i, cfg.CrashAfterBytes, err))
			continue
		}
		if res.Crashed {
			out.Crashed++
			out.CutsByFileKind[res.CutKind.String()]++
		}
		out.Acked += res.Acked
		out.Recovered += res.Recovered
	}
	return out, nil
}
