package store

import (
	"hash/crc32"
	"io"
	"runtime"

	"vibepm/internal/par"
)

// The record-stream replayer: log segments, the checkpoint snapshot and
// the corpus file are all chains of WAL frames (wal.go), and
// replayFrames below is the only code that reads one back.
//
// Sequential replay pays three costs per frame: the byte scan (read
// the header, read the payload), the verification (CRC32C + record
// decode — the dominant cost, allocations included), and the apply
// (an idempotent AddUnique insert — cheap). Only the scan is
// inherently serial: frame boundaries come from the length prefixes,
// so frame N+1 cannot be located before frame N's header is read. The
// pipeline therefore splits the work:
//
//	scanner  —  reads frames sequentially, batches (payload, CRC)
//	            pairs; one goroutine, pure I/O
//	verifiers — CRC-check and decode every frame of a batch across
//	            the worker pool, results landing by frame index
//	applier  —  walks the batch IN FRAME ORDER, applying intact
//	            records and stopping at the first bad frame
//
// The ordered apply is the crux of the equivalence argument: the
// parallel replayer calls apply on exactly the same records, in
// exactly the same order, as the sequential one — so recovery output
// is byte-identical by construction, not merely for streams whose
// apply happens to commute. That matters for one real corner: a
// duplicate-keyed Add is logged but deduped at apply time, so a WAL
// can legally hold two frames with the same (pump, day) key and
// different payloads; first-occurrence-wins must survive
// parallelization or recovered != acked. Confining the parallelism to
// verification (which is per-frame pure) keeps every ordering
// property for free while moving ~90% of the replay cost onto all
// cores.
//
// Truncation semantics are likewise unchanged: a torn header or short
// payload stops the scanner; a CRC or decode failure stops the
// applier at that frame's start offset; either way goodBytes is the
// end of the last intact applied frame and truncated is set. What that
// means is the caller's: a log segment is cut back to goodBytes (the
// tail was never acked), a store file — written whole or not at all —
// is refused.

const (
	// replayBatchFrames and replayBatchBytes bound one scanner→verifier
	// handoff: enough frames to amortize the fan-out, few enough bytes
	// that a replay never holds more than ~2 batches of payloads.
	replayBatchFrames = 512
	replayBatchBytes  = 4 << 20
)

// replayFrame is one scanned frame awaiting verification.
type replayFrame struct {
	payload []byte
	wantCRC uint32
}

// replayBatch is one scanner→verifier→applier unit.
type replayBatch struct {
	frames []replayFrame
	// truncated reports that the scan hit a torn or corrupt header
	// right after these frames (mutually exclusive with a clean EOF).
	truncated bool
}

// ReplayWALWorkers replays every intact record in dir's segments, in
// segment then frame order. Within a segment, replay stops at the
// first torn or corrupt frame — everything behind a bad frame is
// untrusted — but later segments still replay: they were written by
// runs that started after an earlier crash truncated its predecessor,
// so their records are independent of the garbage tail. Replay never
// panics on arbitrary directory contents: garbage files, short headers
// and bit-flipped frames all just truncate the affected segment. A
// missing directory replays nothing.
//
// Segments are scanned sequentially (frame boundaries are serial by
// format) while CRC checks and record decoding fan out across workers;
// apply is always called in frame order, from a single goroutine, so
// the replay is byte-identical to the sequential one whatever the
// worker count. workers <= 0 selects GOMAXPROCS; workers == 1 is
// exactly the sequential replayer.
func ReplayWALWorkers(dir string, apply func(*Record) error, workers int) (ReplayStats, error) {
	return replayWAL(dir, apply, false, workers)
}

// replayFrames is the one reader of a record stream — what follows a
// segment's header or a store file's count: it applies every intact
// frame of r in order. off is the stream's byte offset in its file;
// goodBytes is the offset just past the last applied frame; truncated
// is true when the stream ended at a torn or corrupt frame instead of
// a clean EOF; err is reserved for apply failures. workers <= 0 means
// GOMAXPROCS; one worker runs the sequential loop the equivalence
// proofs compare against, more run the pipeline above. r is not read
// after the call returns.
func replayFrames(r io.Reader, off int64, apply func(*Record) error, workers int) (goodBytes int64, records int, truncated bool, err error) {
	goodBytes = off
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		var buf []byte
		for {
			payload, ferr := readWALFrame(r, buf)
			if ferr == io.EOF {
				return goodBytes, records, false, nil
			}
			var rec *Record
			if ferr == nil {
				// A payload whose CRC holds but that is not a record is
				// corruption that predates framing: truncate, do not guess.
				rec, ferr = DecodeRecord(payload)
			}
			if ferr != nil {
				return goodBytes, records, true, nil
			}
			if err := apply(rec); err != nil {
				return goodBytes, records, false, err
			}
			records++
			goodBytes += walHeaderLen + int64(len(payload))
			buf = payload
		}
	}

	batches := make(chan *replayBatch, 1)
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for range batches { // wait for the scanner to let go of r
		}
	}()

	// Scanner: walk the frame chain, each payload in its own buffer.
	go func() {
		defer close(batches)
		batch, batchBytes := &replayBatch{}, 0
		for {
			payload, wantCRC, serr := scanWALFrame(r, nil)
			if serr == nil {
				batch.frames = append(batch.frames, replayFrame{payload, wantCRC})
				batchBytes += len(payload)
				if len(batch.frames) < replayBatchFrames && batchBytes < replayBatchBytes {
					continue
				}
			}
			batch.truncated = serr != nil && serr != io.EOF
			if len(batch.frames) > 0 || batch.truncated {
				select {
				case batches <- batch:
				case <-stop:
					return
				}
			}
			if serr != nil {
				return
			}
			batch, batchBytes = &replayBatch{}, 0
		}
	}()

	for batch := range batches {
		// Verify the whole batch across the pool: CRC first, then the
		// payload decode — per-frame pure work, safe at any interleaving.
		// A frame that fails either leaves its record nil.
		recs := make([]*Record, len(batch.frames))
		par.ForEach(len(recs), workers, func(i int) {
			if fr := batch.frames[i]; crc32.Checksum(fr.payload, crcTable) == fr.wantCRC {
				recs[i], _ = DecodeRecord(fr.payload)
			}
		})
		// Apply in frame order, stopping at the first bad frame: frames
		// behind it are untrusted even if their own CRCs verify.
		for i, rec := range recs {
			if rec == nil {
				return goodBytes, records, true, nil
			}
			if err := apply(rec); err != nil {
				return goodBytes, records, false, err
			}
			records++
			goodBytes += walHeaderLen + int64(len(batch.frames[i].payload))
		}
		if batch.truncated {
			return goodBytes, records, true, nil
		}
	}
	return goodBytes, records, false, nil
}
