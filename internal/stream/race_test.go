package stream

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"vibepm/internal/store"
)

// TestLiveConcurrentIngestTrendCheckpoint is the live-path extension of
// the store's ingest-during-checkpoint hammer: writers fold into the
// live state right after each durable ack while readers assemble trends
// and metric series and checkpoints loop as fast as they can. Run under
// -race (make race-stream). Afterwards the directory is recovered and a
// fresh live state rebuilt from the WAL replay must agree with direct
// recomputation on every record.
func TestLiveConcurrentIngestTrendCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, _, err := store.OpenDurable(dir, store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever, SegmentBytes: 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLiveState(Config{})
	const (
		writers   = 4
		perWriter = 40
		pumps     = 8
	)

	stopCkpt := make(chan struct{})
	var ckptWg sync.WaitGroup
	ckptWg.Add(1)
	go func() {
		defer ckptWg.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	stopRead := make(chan struct{})
	var readWg sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 999))
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				id := rng.Intn(pumps)
				recs := d.Store().All(id)
				feats := ls.ensure(id, recs, 0)
				if len(feats) != len(recs) {
					t.Errorf("pump %d: %d feats for %d recs", id, len(feats), len(recs))
					return
				}
				if rec := d.Store().Latest(id); rec != nil {
					if fn, ok := ls.MetricFunc("rms"); ok {
						_ = fn(rec)
					}
				}
			}
		}(r)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := mkRec((w*perWriter+i)%pumps, float64(w*1000+i), 64)
				stored, err := d.AddUnique(rec)
				if err != nil {
					t.Errorf("writer %d add %d: %v", w, i, err)
					return
				}
				if stored {
					ls.Fold(rec)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopRead)
	readWg.Wait()
	close(stopCkpt)
	ckptWg.Wait()
	if t.Failed() {
		return
	}

	total := writers * perWriter
	if d.Store().Len() != total {
		t.Fatalf("store holds %d records, want %d", d.Store().Len(), total)
	}
	d.Abort() // crash, no final checkpoint: recovery replays the WAL tail

	re, _, err := store.OpenDurable(dir, store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abort()
	if re.Store().Len() != total {
		t.Fatalf("recovered %d records, want %d", re.Store().Len(), total)
	}
	rebuilt := NewLiveState(Config{})
	if warmed := rebuilt.Warm(re.Store(), 0); warmed != total {
		t.Fatalf("warmed %d records, want %d", warmed, total)
	}
	// The rebuilt cache must agree with the pre-crash cache: both are
	// pure memos of the same deterministic functions, so matching each
	// record's direct recomputation implies matching each other.
	for _, id := range re.Store().Pumps() {
		recs := re.Store().All(id)
		feats := rebuilt.ensure(id, recs, 0)
		for i, rec := range recs {
			ref := NewLiveState(Config{}).feat(rec)
			if !eqF64(feats[i].RMS, ref.RMS) || !eqF64(feats[i].VRMS, ref.VRMS) || feats[i].Offsets != ref.Offsets {
				t.Fatalf("pump %d record %d: rebuilt features diverged", id, i)
			}
		}
	}
}
