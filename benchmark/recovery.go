package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vibepm/internal/store"
)

// walTailRecords is how many records the crashed directory holds in its
// WAL only, written after the last checkpoint: 20 % of the directory,
// as in the issue's 16,000 + 4,000, at this corpus' size.
const walTailRecords = 900

// minRestarts is how many restarts a run measures at least, however
// short -seconds is.
const minRestarts = 3

// crashedDir fabricates, through the public store API, the data
// directory of a vibed that was killed with a WAL tail outstanding:
// the corpus in a checkpoint snapshot, then tail records appended and
// synced but not checkpointed. It returns the tail records.
func crashedDir(dir string, c *corpus) ([]*store.Record, error) {
	d, _, err := store.OpenDurable(dir, store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever}})
	if err != nil {
		return nil, err
	}
	defer d.Abort() // no final checkpoint: that is the crash
	for _, id := range c.ds.Measurements.Pumps() {
		for _, rec := range c.ds.Measurements.All(id) {
			if _, err := d.AddUnique(rec); err != nil {
				return nil, err
			}
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		return nil, err
	}
	tail := make([]*store.Record, walTailRecords)
	for i := range tail {
		pump := i % c.sizes.Pumps
		tail[i] = c.ds.Capture(pump, c.sizes.newDay(1+i/c.sizes.Pumps))
		if _, err := d.AddUnique(tail[i]); err != nil {
			return nil, err
		}
	}
	if err := d.Sync(); err != nil {
		return nil, err
	}
	return tail, nil
}

// copyTree copies a directory of regular files and directories.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func runRecoveryRestart(e *env) (*result, error) {
	res := newResult()
	bin, err := e.vibed()
	if err != nil {
		return nil, err
	}
	c, err := generateCorpus(servingFleet, e.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(e.work, "data")
	if err := c.save(dataDir); err != nil {
		return nil, err
	}

	// Set-up: fabricate the crashed directory and copy it once, the way
	// every measured restart starts from a fresh copy.
	pristine := filepath.Join(e.work, "crashed")
	scratch := filepath.Join(e.work, "restart")
	var setups []timed
	var walTail []*store.Record
	for k := 0; k < e.setups(); k++ {
		for _, dir := range []string{pristine, scratch} {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if walTail, err = crashedDir(pristine, c); err != nil {
			return nil, fmt.Errorf("fabricate crashed directory: %w", err)
		}
		if err := copyTree(pristine, scratch); err != nil {
			return nil, err
		}
		setups = append(setups, timed{e.host.since(start), ms(time.Since(start))})
	}
	total := c.ds.Measurements.Len() + len(walTail)
	res.Notes["crashed_dir"] = fmt.Sprintf("%d records in the snapshot + %d in the WAL tail", c.ds.Measurements.Len(), len(walTail))

	ref, err := newReference(dataDir, walTail)
	if err != nil {
		return nil, err
	}
	want := c.perPump()
	acked := map[int][]float64{}
	for _, rec := range walTail {
		acked[rec.PumpID] = append(acked[rec.PumpID], rec.ServiceDays)
	}
	pumps := checkedPumps(e.seed, c.sizes.Pumps)

	var recovers, fleets []timed // at = the exec / the request, v in ms
	var rss []float64
	deadline := time.Now().Add(e.window())
	another := func(n int) bool {
		if e.trace {
			return n == 0 // one restart for trace.gap_ms; the traced pass needs the rest
		}
		return n < minRestarts || time.Now().Before(deadline)
	}
	for n := 0; another(n); n++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(scratch); err != nil {
			return nil, err
		}
		if err := copyTree(pristine, scratch); err != nil {
			return nil, err
		}
		res.Attempted++
		args := []string{"-data", dataDir, "-wal-dir", scratch, "-faults=true"}
		began := e.host.since(time.Now())
		ch, ready, err := startVibed(e.ctx, bin, args, filepath.Join(e.out, "vibed.stderr"), "/api/v1/healthz")
		if err != nil {
			if e.ctx.Err() != nil {
				return nil, e.ctx.Err()
			}
			res.Failed++
			res.fail("restart %d: %v", n, err)
			continue
		}
		cn := newConn(ch.base)
		t0 := time.Now()
		var fleet struct {
			Fleet []json.RawMessage `json:"fleet"`
		}
		err = cn.getJSON("/api/v1/analysis/fleet", &fleet)
		first := time.Since(t0)
		switch {
		case err != nil:
			res.Failed++
			res.fail("restart %d: first fleet view: %v", n, err)
		case len(fleet.Fleet) != c.sizes.Pumps:
			res.Failed++
			res.fail("restart %d: fleet view lists %d pumps, want %d", n, len(fleet.Fleet), c.sizes.Pumps)
		default:
			recovers = append(recovers, timed{began, ms(ready + first)})
			fleets = append(fleets, timed{e.host.since(t0), ms(first)})
			if mb, err := ch.peakRSSMB(); err == nil {
				rss = append(rss, mb)
			}
			// The full output checks cost about as much as a restart;
			// every restart recovers the same bytes, so check the first.
			if n == 0 {
				checkStored(res, cn, want, acked)
				checkAnalysis(res, cn, ref, pumps)
			}
		}
		cn.close()
		ch.stop()
	}
	if len(recovers) == 0 {
		return nil, fmt.Errorf("no restart succeeded: %v", res.Problems)
	}

	recoverMS := median(atFullSpeed(e.host, recovers))
	res.Notes["recover_ms"] = fmt.Sprintf("%.0f as measured", values(recovers))
	res.Notes["host"] = e.host.note()
	res.EndToEnd["setup_s"] = median(unstretched(e.host, setups)) / 1000
	res.EndToEnd["op_ms"] = recoverMS
	res.EndToEnd["view_ms"] = median(atFullSpeed(e.host, fleets))
	res.EndToEnd["capacity_per_s"] = float64(total) / (recoverMS / 1000)
	res.EndToEnd["peak_rss_mb"] = median(rss)
	res.Samples["setup_s"] = len(setups)
	for _, m := range []string{"op_ms", "view_ms", "capacity_per_s", "peak_rss_mb"} {
		res.Samples[m] = len(recovers)
	}

	if e.trace {
		// The traced restart is timed as measured, so the gap is too.
		if err := traceRecovery(e, res, dataDir, pristine, median(values(recovers))); err != nil {
			return nil, err
		}
	}
	return res, nil
}
