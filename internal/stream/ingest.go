package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"vibepm/internal/store"
)

// ErrInvalidRecord marks a record whose axes cannot be stored: a
// permanent per-record rejection, like store.ErrRecordTooLarge, that
// ingestion layers map to "bad request", not "retry".
var ErrInvalidRecord = errors.New("invalid record")

// Bounds on a record's metadata, checked before anything is written.
// They sit far outside any physical sensor; they exist because a stored
// record is analysed for as long as it is kept, and one whose numbers
// overflow makes every view of its pump answer 500 (encoding/json
// refuses ±Inf and NaN) — or, through a sample rate near zero, sizes a
// smoothing window in the billions of bins. With K ≤
// store.MaxSamplesPerAxis ≈ 1e6 samples of amplitude A ≤ MaxFullScaleG
// at a rate fs within [MinSampleRateHz, MaxSampleRateHz], the largest
// intermediates any transform forms — |FFT bin|² ≤ (K·A)² = 1e72, a
// periodogram bin ≤ 2·K·A²/fs = 2e66, a frequency ≤ fs·K = 1e15 — stay
// finite, in float64 and in the codec's float32 header fields alike.
const (
	// MaxFullScaleG bounds |scale_g| × 32768, the largest acceleration
	// (in g) a sample can decode to.
	MaxFullScaleG = 1e30
	// MinSampleRateHz and MaxSampleRateHz bound sample_rate_hz.
	MinSampleRateHz = 1.0
	MaxSampleRateHz = 1e9
)

// Ingester is the one write seam every ingestion front-end (REST
// ingest, the mote gateway) goes through. It owns the two rules they
// share: a record is validated before anything is written, and the
// live state holds a record's bundle only after its write was
// acknowledged and stored — on the durable path after the WAL frame is
// on disk per the fsync policy — so the feature cache never holds a
// record a crash could lose or the store refused.
//
// Plant only after the ack; compute during it. The fold reads nothing
// but the record, so on the durable path it runs on its own goroutine,
// into a bundle the memo does not hold, while Durable.AddUnique waits
// for the disk (and a cluster primary for its replica). The ack still
// waits for the fold — the slower of the two, not their sum — so a
// closed-loop client cannot outrun the CPU. Without a Durable there is
// nothing to wait for, and the fold follows the insert.
type Ingester struct {
	// Store receives the records when Durable is nil.
	Store *store.Measurements
	// Durable, when non-nil, logs every record before applying it.
	Durable *store.Durable
	// Live, when non-nil, folds every newly stored record.
	Live *LiveState
}

// Ingest stores one record idempotently, after rounding rec's
// SampleRateHz and ScaleG in place to the float32 precision the codec
// keeps. stored is false for a duplicate (same pump and service time as
// a stored record). A non-nil error means the record was not
// acknowledged: ErrInvalidRecord or store.ErrRecordTooLarge reject the
// record itself, anything else is the write-ahead log failing.
func (in *Ingester) Ingest(rec *store.Record) (stored bool, err error) {
	k := rec.Samples()
	if k == 0 || len(rec.Raw[1]) != k || len(rec.Raw[2]) != k {
		return false, fmt.Errorf("%w: axes must be non-empty and equal length", ErrInvalidRecord)
	}
	if k > store.MaxSamplesPerAxis {
		// The codec (and so the WAL and snapshots) caps the per-axis
		// sample count; a record past the cap could be held in memory
		// but never persisted or recovered, so it is rejected on the
		// in-memory path too.
		return false, fmt.Errorf("%w: %d samples per axis exceeds limit %d", ErrInvalidRecord, k, store.MaxSamplesPerAxis)
	}
	if math.IsNaN(rec.ServiceDays) || math.IsInf(rec.ServiceDays, 0) {
		return false, fmt.Errorf("%w: service_days must be finite", ErrInvalidRecord)
	}
	// The bounds are written so that NaN fails them.
	if !(rec.SampleRateHz >= MinSampleRateHz && rec.SampleRateHz <= MaxSampleRateHz) {
		return false, fmt.Errorf("%w: sample_rate_hz %g outside [%g, %g]", ErrInvalidRecord, rec.SampleRateHz, MinSampleRateHz, MaxSampleRateHz)
	}
	if !(math.Abs(rec.ScaleG)*(math.MaxInt16+1) <= MaxFullScaleG) {
		return false, fmt.Errorf("%w: scale_g %g puts full scale past %g g", ErrInvalidRecord, rec.ScaleG, MaxFullScaleG)
	}
	// The codec stores both as float32. Round before anything reads
	// the record, so the live fold and every view computed now see the
	// values a restart will recover.
	rec.SampleRateHz = float64(float32(rec.SampleRateHz))
	rec.ScaleG = float64(float32(rec.ScaleG))
	if in.Durable != nil {
		return in.addDurable(rec)
	}
	stored = in.Store.AddUnique(rec)
	if stored && in.Live != nil {
		in.Live.Fold(rec)
	}
	return stored, nil
}

// addDurable logs and stores rec while its fold runs.
func (in *Ingester) addDurable(rec *store.Record) (stored bool, err error) {
	// A re-send must not buy a fold. The check races the insert it
	// guards: losing wastes one fold and never plants one.
	if in.Live == nil || len(in.Durable.Store().Query(rec.PumpID, rec.ServiceDays, rec.ServiceDays)) > 0 {
		return in.Durable.AddUnique(rec)
	}
	var (
		f      *feat
		failed any
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		// A panic here would end the process; on the caller it fails
		// one request. Carry it over the join.
		defer func() {
			if p := recover(); p != nil {
				failed = fmt.Sprintf("stream: fold panicked: %v\n%s", p, debug.Stack())
			}
		}()
		f = in.Live.foldDetached(rec)
	}()
	stored, err = in.Durable.AddUnique(rec)
	added := time.Now()
	<-done
	metFoldJoin.Observe(time.Since(added).Seconds())
	if failed != nil {
		panic(failed)
	}
	if stored {
		in.Live.lookup(rec, true, f, nil, nil)
	}
	return stored, err
}
