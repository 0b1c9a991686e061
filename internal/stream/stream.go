// Package stream is the incremental analysis engine: it folds each
// ingested measurement into a per-record feature bundle — the per-axis
// zero offsets, the RMS and velocity-RMS scalars, the DCT-PSD harmonic
// peaks, the peak-harmonic distance D_a and the fault report — once,
// at ingest time, so every later analysis pass (trend cleaning, fleet
// reports, the REST trend endpoints) reads cached scalars instead of
// re-transforming raw waveforms.
//
// The load-bearing guarantee is batch equivalence: every cached value
// is produced by the *same* function the batch engine calls
// (transform.Offsets, transform.RMS, feature.HarmonicOfRecord,
// Baseline.DaFromHarmonic, FaultDetector.Detect), on the same record,
// so an analysis built from the cache is bit-identical to one
// recomputed from scratch — not merely close. The global-but-cheap
// steps (mean shift outlier detection, moving-average smoothing) still
// run over the full scalar series on every query; only the expensive
// per-record transforms are O(new data). There is no batch mode beside
// it: every engine reads through a LiveState. The equivalence property
// harness (live_test.go at the repository root) ingests fleets in
// randomized orders and asserts, at every prefix, that the engine's
// trends, scores and fault reports equal the pure functions' —
// Engine.BatchCleanTrend, Baseline.Da, FaultDetector.Detect.
//
// There is one memo protocol, LiveState.lookup: every entry point
// (Fold, Ensure, Da, DaSeries, Harmonics, FaultReport, MetricFunc,
// OffsetRows, and the durable Ingester planting the bundle it folded
// during the append) is a thin caller of it, so a derived value is
// looked up, computed on a miss and counted in exactly one place.
//
// Cache entries are keyed by record pointer — the store holds records
// by reference and never mutates them — so out-of-order arrivals,
// duplicate suppression, and mid-series inserts need no special
// casing: the store's ordering is re-read on every assembly and the
// cache is a pure memo. A store reload (snapshot restore, maintenance
// reset) orphans the old pointers; Ensure evicts entries no longer
// reachable from the store once a pump's memo has grown past 1.5× the
// live series (evictOrphans).
package stream

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vibepm/internal/feature"
	"vibepm/internal/par"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// Config parameterizes a LiveState. The zero value selects the
// engine's defaults.
type Config struct {
	// Harmonic is the harmonic-extraction option set folded at ingest
	// *before* a baseline is installed — the same raw options the
	// engine's Fit scans the corpus with, so a later Fit finds its
	// features precomputed. After SetBaseline, folds also extract with
	// the baseline's (resolution-pinned) options and score D_a.
	Harmonic feature.Options
}

// slots is a bounded keyed list, oldest first — the one container
// behind every lazily filled per-record value. Keys are compared with
// ==: an option set by value, a baseline or detector by pointer
// identity (both are immutable once installed, so pointer identity is
// value identity).
type slots[K comparable, V any] []slot[K, V]

type slot[K comparable, V any] struct {
	key K
	val V
}

func (s slots[K, V]) get(key K) (val V, ok bool) {
	for _, e := range s {
		if e.key == key {
			return e.val, true
		}
	}
	return val, false
}

// put appends an entry for a key get just missed, first dropping the
// oldest one when the list already holds limit: it belongs to a
// retired option set, baseline or detector.
func (s *slots[K, V]) put(key K, val V, limit int) {
	if len(*s) >= limit {
		*s = append((*s)[:0], (*s)[1:]...)
	}
	*s = append(*s, slot[K, V]{key, val})
}

// Slot caps per record. Harmonics: the raw engine options plus the
// baseline's resolution-pinned ones in steady state, a third only
// across a re-Fit with changed options. D_a and fault reports: the
// current baseline / detector plus the one a re-Fit / spec update is
// replacing.
const (
	maxHarmSlots  = 3
	maxDaSlots    = 2
	maxFaultSlots = 2
)

// daScore is one D_a result, error included: an unscorable record is
// remembered as such instead of re-scored on every trend rebuild.
type daScore struct {
	val float64
	err error
}

// Feat is the per-record feature bundle. Offsets, RMS and VRMS are
// immutable once lookup has returned the bundle; the keyed slots fill
// lazily, under mu, as baselines, option sets and detectors appear.
type Feat struct {
	// Offsets is transform.Offsets(rec) — the mean-shift outlier
	// detector's input point.
	Offsets [3]float64
	// RMS is transform.RMS(rec), the r_mn feature.
	RMS float64
	// VRMS is transform.VelocityRMS(rec, lo, hi) over the ISO band the
	// REST trend endpoint serves.
	VRMS float64

	// mu is this record's own lock: it is held across the fold and
	// across a lazy slot fill, so each runs at most once per record /
	// per (record, key) and a second caller waits for the first
	// instead of repeating its DSP. No pump-wide lock is held with it.
	mu     sync.Mutex
	folded bool
	harms  slots[feature.Options, feature.Harmonic]
	da     slots[*feature.Baseline, daScore]
	faults slots[*feature.FaultDetector, feature.FaultReport]
}

// The three lazy accessors. Each is called with f.mu held, returns the
// value for its key — identical to the pure function it memoizes — and
// reports whether it had to run DSP to get it.

// harmonic is feature.HarmonicOfRecord(rec, opt).
func (f *Feat) harmonic(rec *store.Record, opt feature.Options) (feature.Harmonic, bool) {
	if h, ok := f.harms.get(opt); ok {
		return h, false
	}
	h := own(feature.HarmonicOfRecord(rec, opt))
	f.harms.put(opt, h, maxHarmSlots)
	return h, true
}

// own gives h a peak list of its own, exactly as long as it is: the
// memo keeps a harmonic for the life of its record, and the list
// ExtractHarmonic returns sits in FindPeaks' array of every local
// maximum.
func own(h feature.Harmonic) feature.Harmonic {
	h.Peaks = slices.Clip(slices.Clone(h.Peaks))
	return h
}

// score is base.Da(rec). With the baseline's harmonic already in its
// slot (every fold after SetBaseline) only the distance is computed,
// which is arithmetic over two peak lists, not DSP.
func (f *Feat) score(rec *store.Record, base *feature.Baseline) (daScore, bool) {
	if s, ok := f.da.get(base); ok {
		return s, false
	}
	h, dsp := f.harmonic(rec, base.Opt)
	var s daScore
	s.val, s.err = base.DaFromHarmonic(h)
	f.da.put(base, s, maxDaSlots)
	return s, dsp
}

// fault is det.Detect(rec).
func (f *Feat) fault(rec *store.Record, det *feature.FaultDetector) (feature.FaultReport, bool) {
	if rep, ok := f.faults.get(det); ok {
		return rep, false
	}
	rep := det.Detect(rec)
	f.faults.put(det, rep, maxFaultSlots)
	return rep, true
}

// streamShardCount mirrors the store's sharding so per-pump lock
// domains line up with ingestion's.
const streamShardCount = 16

type liveShard struct {
	mu    sync.Mutex
	pumps map[int]*pumpState
}

// pumpState is one pump's feature memo. Its mutex guards the map
// alone; every transform runs outside it, under the record's own lock.
type pumpState struct {
	mu    sync.Mutex
	feats map[*store.Record]*Feat
}

// LiveState is the incremental feature cache, safe for concurrent use:
// the one analysis path. Every vibepm.Engine builds one with itself and
// reads every per-record value through it (trend cleaning, fit, scores,
// fleet reports, fault status); a restapi.Server has its own for the
// trend endpoint unless WithLive hands it the engine's, which is how a
// node shares one instance between the write seam (stream.Ingester
// behind REST ingest, and the WAL-recovery warm-up) and the readers.
// The mote gateway stores through the same seam but has never been
// handed a live state: its records fold on first read.
type LiveState struct {
	cfg      Config
	baseline atomic.Pointer[feature.Baseline]
	detector atomic.Pointer[feature.FaultDetector]
	shards   [streamShardCount]liveShard
	size     atomic.Int64
}

// NewLiveState returns an empty live state.
func NewLiveState(cfg Config) *LiveState {
	ls := &LiveState{cfg: cfg}
	for i := range ls.shards {
		ls.shards[i].pumps = make(map[int]*pumpState)
	}
	return ls
}

// SetBaseline installs the trained Zone A baseline: subsequent folds
// extract the baseline's harmonic variant and score D_a at ingest, so
// trend queries after new data stay pure cache reads.
func (ls *LiveState) SetBaseline(b *feature.Baseline) { ls.baseline.Store(b) }

// SetFaultDetector installs (or, with nil, removes) the fault detector:
// subsequent folds classify at ingest, so fault queries after new data
// are pure cache reads. Detectors are immutable (WithSpec is
// copy-on-write); a new one orphans the old slots, which age out of
// the two-slot window as records are re-queried.
func (ls *LiveState) SetFaultDetector(d *feature.FaultDetector) { ls.detector.Store(d) }

// FaultDetector returns the installed detector (nil when fault
// classification is disabled).
func (ls *LiveState) FaultDetector() *feature.FaultDetector { return ls.detector.Load() }

// Size returns the number of cached records across every pump.
func (ls *LiveState) Size() int { return int(ls.size.Load()) }

func (ls *LiveState) pump(pumpID int) *pumpState {
	sh := &ls.shards[uint(pumpID)%streamShardCount]
	sh.mu.Lock()
	ps := sh.pumps[pumpID]
	if ps == nil {
		ps = &pumpState{feats: make(map[*store.Record]*Feat)}
		sh.pumps[pumpID] = ps
	}
	sh.mu.Unlock()
	return ps
}

// lookup is the live layer's one memo protocol: it returns rec's
// bundle, folded, after running want (nil: the bundle alone) on it.
//
// The pump lock covers the map probe and, on a miss, the insert of an
// empty bundle — nothing else. The fold and want run under the
// bundle's own lock, so DSP on one record never stalls a lookup of
// another, and two callers racing on one record compute it once. want
// reads or lazily fills one keyed slot and reports whether that took
// DSP. Each call counts exactly once: a miss if it ran DSP (the fold,
// or want's fill), a hit otherwise.
//
// plant=false is the exception of Harmonics and Da, which may be asked
// about records no store holds: a record that is not resident is left
// out of the memo; lookup counts the miss and returns nil, and the
// caller computes the one value it wants.
//
// pre, when non-nil, is rec's bundle already folded off the memo
// (foldDetached): a miss plants it and counts the miss its fold was; if
// a reader made the record resident first, pre is dropped — a record
// never has two bundles.
func (ls *LiveState) lookup(rec *store.Record, plant bool, pre *Feat, want func(*Feat) (dsp bool)) *Feat {
	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	f := ps.feats[rec]
	if f == nil && plant {
		if f = pre; f == nil {
			f = new(Feat)
		}
		ps.feats[rec] = f
		ls.size.Add(1)
	}
	ps.mu.Unlock()
	if f == nil {
		metMisses.Inc()
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dsp := f == pre
	if !f.folded {
		ls.computeFeat(rec, f)
		dsp = true
	}
	if want != nil && want(f) {
		dsp = true
	}
	if dsp {
		metMisses.Inc()
	} else {
		metHits.Inc()
	}
	return f
}

// computeFeat folds one record into f (f.mu held, or f detached): the
// cheap scalars, the harmonic for the configured options and — with a
// baseline installed — the baseline's variant and the D_a score, all
// from one PSD pass; with a detector installed, the fault report.
func (ls *LiveState) computeFeat(rec *store.Record, f *Feat) {
	start := time.Now()
	f.Offsets = transform.Offsets(rec)
	f.RMS = transform.RMS(rec)
	base := ls.baseline.Load()
	if base != nil {
		// The raw-option variant plus the baseline's.
		f.harms = make(slots[feature.Options, feature.Harmonic], 0, 2)
	}
	// The spectrum lives in pooled scratch: the bundle keeps only what
	// is derived from it.
	transform.UsePSD(rec, func(freq, psd []float64) {
		f.VRMS = transform.VelocityRMSFromPSD(freq, psd, transform.ISOBandLoHz, transform.ISOBandHiHz)
		// ExtractHarmonic over this PSD is exactly HarmonicOfRecord: both
		// feed the same transform.PSDInto output into the same peak search.
		h := own(feature.ExtractHarmonic(freq, psd, ls.cfg.Harmonic))
		f.harms.put(ls.cfg.Harmonic, h, maxHarmSlots)
		if base != nil && base.Opt != ls.cfg.Harmonic {
			// At the training rate the baseline's Hz-pinned window is the
			// raw options' bin count again: one extraction serves both.
			if base.Opt.Resolved(freq, psd) != ls.cfg.Harmonic.Resolved(freq, psd) {
				h = own(feature.ExtractHarmonic(freq, psd, base.Opt))
			}
			f.harms.put(base.Opt, h, maxHarmSlots)
		}
	})
	if base != nil {
		f.score(rec, base)
	}
	if det := ls.detector.Load(); det != nil {
		f.fault(rec, det)
	}
	f.folded = true
	metFolds.Inc()
	metFoldDur.Observe(time.Since(start).Seconds())
}

// feat returns the folded bundle of one record.
func (ls *LiveState) feat(rec *store.Record) *Feat { return ls.lookup(rec, true, nil, nil) }

// foldDetached folds rec into a bundle the memo does not hold, for a
// caller that cannot know yet whether rec will be stored.
func (ls *LiveState) foldDetached(rec *store.Record) *Feat {
	f := new(Feat)
	ls.computeFeat(rec, f)
	return f
}

// Fold caches the feature bundle of one record — what an ingest with
// no write-ahead log calls once the store took the record (a durable
// one folds during the append and plants after it, see Ingester), so
// the cache never holds features for records that were not accepted.
// Folding a record that is already resident is a hit: its bundle,
// lazily filled slots included, is kept.
func (ls *LiveState) Fold(rec *store.Record) {
	if rec != nil {
		ls.feat(rec)
	}
}

// Warm pre-folds every record already in the store — the recovery
// path: after a snapshot load plus WAL replay rebuilds the measurement
// store, Warm rebuilds the live state so the first queries are already
// O(new data). Pumps fan out across workers (<= 0 = GOMAXPROCS;
// 1 = sequential); each pump's misses are computed inline on its
// worker, so the fan-out is per pump, not nested. Warm is safe to run
// concurrently with ingest: a fold of a fresh append and a warm-time
// lookup of the same record compute it once. Returns the number of
// records folded.
func (ls *LiveState) Warm(m *store.Measurements, workers int) int {
	if m == nil {
		return 0
	}
	start := time.Now()
	pumps := m.Pumps()
	var total atomic.Int64
	par.ForEach(len(pumps), workers, func(i int) {
		recs := m.All(pumps[i])
		// Misses compute inline (workers=1): the pump fan-out above
		// already owns the parallelism, and nesting pools would
		// oversubscribe the cores recovery is trying to saturate.
		ls.ensure(pumps[i], recs, 1)
		total.Add(int64(len(recs)))
	})
	metWarmDur.Observe(time.Since(start).Seconds())
	return int(total.Load())
}

// Ensure returns the feature bundle of every record, aligned by index,
// folding (in parallel) the ones not folded yet. recs is a store-order
// snapshot of one pump's series; Ensure also evicts cache entries
// orphaned by a store reload (see evictOrphans).
func (ls *LiveState) Ensure(pumpID int, recs []*store.Record) []*Feat {
	return ls.ensure(pumpID, recs, 0)
}

// ensure implements Ensure with an explicit worker count for the
// fan-out — Warm passes 1 so its per-pump workers fold inline instead
// of nesting pools.
func (ls *LiveState) ensure(pumpID int, recs []*store.Record, workers int) []*Feat {
	out := make([]*Feat, len(recs))
	par.ForEach(len(recs), workers, func(i int) { out[i] = ls.feat(recs[i]) })
	ls.evictOrphans(ls.pump(pumpID), recs)
	return out
}

// evictOrphans rebuilds the pump's memo keeping only records still
// reachable from the store snapshot, once the map has bloated past
// 1.5× the live series — a full store reload (every pointer replaced)
// compacts on the next assembly, while the slack term keeps in-flight
// folds of fresh appends from churning small series.
func (ls *LiveState) evictOrphans(ps *pumpState, recs []*store.Record) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.feats) <= len(recs)*3/2+8 {
		return
	}
	fresh := make(map[*store.Record]*Feat, len(recs))
	for _, rec := range recs {
		if f := ps.feats[rec]; f != nil {
			fresh[rec] = f
		}
	}
	metEvictions.Add(uint64(len(ps.feats) - len(fresh)))
	ls.size.Add(int64(len(fresh) - len(ps.feats)))
	ps.feats = fresh
}

// OffsetRows assembles the mean-shift input points of one pump's
// series — value-identical to preprocess.Averages over the same
// records, with the expensive per-record transforms served from cache.
func (ls *LiveState) OffsetRows(pumpID int, recs []*store.Record) [][]float64 {
	return OffsetRowsOf(ls.Ensure(pumpID, recs))
}

// OffsetRowsOf assembles the mean-shift input points from bundles
// already fetched with Ensure, avoiding a second cache pass.
func OffsetRowsOf(feats []*Feat) [][]float64 {
	out := make([][]float64, len(feats))
	flat := make([]float64, 3*len(feats))
	for i, f := range feats {
		row := flat[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = f.Offsets[0], f.Offsets[1], f.Offsets[2]
		out[i] = row
	}
	return out
}

// Da returns the D_a score of one record against base, bit-identical
// to base.Da(rec). A fold under the same baseline already scored it. A
// record that is not resident is scored and left out of the memo: an
// engine classifying fresh captures it never stores (an edge device
// with a loaded model) must not keep each one's waveform alive.
func (ls *LiveState) Da(rec *store.Record, base *feature.Baseline) (float64, error) {
	var s daScore
	if ls.lookup(rec, false, nil, func(f *Feat) (dsp bool) { s, dsp = f.score(rec, base); return }) == nil {
		return base.Da(rec)
	}
	return s.val, s.err
}

// DaSeries scores the selected records of one pump against base and
// assembles the (service day, D_a) series in index order, skipping
// records whose score errors — the same selection the batch trend
// pipeline makes. recs is the series Ensure just made resident, so
// every score is a memo read.
func (ls *LiveState) DaSeries(recs []*store.Record, idx []int, base *feature.Baseline) (days, das []float64) {
	scores := make([]daScore, len(idx))
	par.ForEach(len(idx), 0, func(k int) {
		scores[k].val, scores[k].err = ls.Da(recs[idx[k]], base)
	})
	days = make([]float64, 0, len(idx))
	das = make([]float64, 0, len(idx))
	for k, s := range scores {
		if s.err == nil {
			days = append(days, recs[idx[k]].ServiceDays)
			das = append(das, s.val)
		}
	}
	return days, das
}

// Harmonics returns the harmonic feature of every record for opt —
// the engine's Fit-time corpus scan, cache-served after ingest folds.
// Results are identical to feature.HarmonicOfRecord per record. The
// scan may meet records that are not in the hot store (labelled
// measurements the compactor moved to the cold tier): a record that is
// not resident is not planted in the memo, only its one harmonic is
// extracted.
func (ls *LiveState) Harmonics(recs []*store.Record, opt feature.Options) []feature.Harmonic {
	return par.Map(len(recs), 0, func(i int) (h feature.Harmonic) {
		rec := recs[i]
		if ls.lookup(rec, false, nil, func(f *Feat) (dsp bool) { h, dsp = f.harmonic(rec, opt); return }) == nil {
			h = feature.HarmonicOfRecord(rec, opt)
		}
		return h
	})
}

// FaultReport classifies one record with det, identical to
// det.Detect(rec) — the batch-equivalence harness pins this across
// randomized ingestion orders. A fold under the same detector already
// classified it.
func (ls *LiveState) FaultReport(rec *store.Record, det *feature.FaultDetector) (rep feature.FaultReport) {
	ls.lookup(rec, true, nil, func(f *Feat) (dsp bool) { rep, dsp = f.fault(rec, det); return })
	return rep
}

// MetricFunc adapts the cache to the store's series-extraction
// signature for the REST trend metrics. The returned function yields
// exactly transform.RMS / transform.VelocityRMS values; uncached
// records are folded on first touch.
func (ls *LiveState) MetricFunc(metric string) (func(*store.Record) float64, bool) {
	switch metric {
	case "rms":
		return func(rec *store.Record) float64 { return ls.feat(rec).RMS }, true
	case "vrms":
		return func(rec *store.Record) float64 { return ls.feat(rec).VRMS }, true
	}
	return nil, false
}
