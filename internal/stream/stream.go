// Package stream is the incremental analysis engine: it folds each
// ingested measurement into a per-record feature bundle — the per-axis
// zero offsets, the RMS and velocity-RMS scalars, the DCT-PSD harmonic
// peaks and the peak-harmonic distance D_a — once, at ingest time, so
// every later analysis pass (trend cleaning, fleet reports, the REST
// trend endpoints) reads cached scalars instead of re-transforming raw
// waveforms. The fault report is kept in the same bundle but computed
// only where a reader asks for it: at ingest (a fresh record is its
// pump's latest, the one FaultStatus and Report classify), for each
// pump's latest record at the end of a warm-up, and on first query for
// any other record.
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
// The memo answers for one fit, and is its one holder: Da, DaSeries,
// FaultReport and Harmonics read the installed baseline, detector and
// Config.Harmonic themselves. A bundle holds one value per feature for
// that fit; a value left by an earlier baseline or detector is
// recomputed in place when next read. The only value not kept is a
// non-resident record's (one no store holds): the pure function's.
//
// There is one memo protocol, LiveState.lookup: every entry point
// (Fold, Da, DaSeries, Harmonics, FaultReport, MetricFunc, OffsetRows,
// and the durable Ingester planting the bundle it folded during the
// append) is a thin caller of it, so a derived value is looked up,
// computed on a miss and counted in exactly one place.
//
// Cache entries are keyed by record pointer — the store holds records
// by reference and never mutates them — so out-of-order arrivals,
// duplicate suppression, and mid-series inserts need no special
// casing: the store's ordering is re-read on every assembly and the
// cache is a pure memo. A store reload (snapshot restore, maintenance
// reset) orphans the old pointers; OffsetRows evicts entries no longer
// reachable from the store once a pump's memo has grown past 1.5× the
// live series (evictOrphans).
package stream

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vibepm/internal/dsp"
	"vibepm/internal/feature"
	"vibepm/internal/par"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// Config parameterizes a LiveState. The zero value selects the
// engine's defaults.
type Config struct {
	// Harmonic is the harmonic-extraction option set every fold keeps —
	// the same raw options the engine's Fit scans the corpus with, so a
	// later Fit finds its features precomputed. After SetBaseline, folds
	// also extract with the baseline's (resolution-pinned) options to
	// score D_a, and keep only the score.
	Harmonic feature.Options
}

// daScore is one D_a result, error included: an unscorable record is
// remembered as such instead of re-scored on every trend rebuild.
type daScore struct {
	val float64
	err error
}

// feat is the per-record feature bundle: one value per feature, for the
// installed fit. Offsets, RMS, VRMS and harm are immutable once lookup
// has returned the bundle. The D_a score and the fault report are each
// tagged with the baseline / detector they were computed for; a stale
// tag (a re-Fit, a loaded model, a spec update) is recomputed in place
// under mu the first time the installed one is asked about.
type feat struct {
	// Offsets is transform.Offsets(rec) — the mean-shift outlier
	// detector's input point.
	Offsets [3]float64
	// RMS is transform.RMS(rec), the r_mn feature.
	RMS float64
	// VRMS is transform.VelocityRMS(rec, lo, hi) over the ISO band the
	// REST trend endpoint serves.
	VRMS float64

	// mu is this record's own lock: it is held across the fold and
	// across a stale value's refresh, so each runs at most once per
	// record and fit, and a second caller waits for the first instead
	// of repeating its DSP. No pump-wide lock is held with it.
	mu     sync.Mutex
	folded bool
	// harm is feature.HarmonicOfRecord(rec, Config.Harmonic).
	harm feature.Harmonic
	// da is daFor.Da(rec); daFor is nil until a baseline scored it.
	daFor *feature.Baseline
	da    daScore
	// fault is faultFor.Detect(rec); faultFor is nil until a reader
	// asked for the record's report (or the ingest seam classified it).
	faultFor *feature.FaultDetector
	fault    feature.FaultReport
}

// own gives h a peak list of its own, exactly as long as it is (nil
// when empty): the memo keeps a harmonic for the life of its record,
// and the list the fold extracts sits in a pooled array of every local
// maximum.
func own(h feature.Harmonic) feature.Harmonic {
	if len(h.Peaks) == 0 {
		h.Peaks = nil
	} else {
		h.Peaks = slices.Clip(slices.Clone(h.Peaks))
	}
	return h
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
	feats map[*store.Record]*feat
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
// score D_a at ingest, so trend queries after new data stay pure cache
// reads. A record scored against an earlier baseline is re-scored in
// place the first time it is asked about.
func (ls *LiveState) SetBaseline(b *feature.Baseline) { ls.baseline.Store(b) }

// Baseline returns the installed baseline (nil before SetBaseline).
func (ls *LiveState) Baseline() *feature.Baseline { return ls.baseline.Load() }

// SetFaultDetector installs (or, with nil, removes) the fault detector:
// subsequent ingests classify the record they fold and Warm classifies
// each pump's latest record, so the fault status of every pump is a
// pure cache read; any other record is classified the first time it is
// asked about and kept. Detectors are immutable (WithSpec is
// copy-on-write); a record classified by an earlier one is
// re-classified in place the first time it is asked about.
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
		ps = &pumpState{feats: make(map[*store.Record]*feat)}
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
// reads the bundle's value, refreshes it in place when its tag is
// stale, or computes one the bundle does not keep, and reports whether
// that took DSP; folded tells it whether this call folded the bundle.
// Each call counts exactly once: a miss if it ran DSP (the fold, or
// want), a hit otherwise.
//
// plant=false is for a query that may meet a record no store holds
// (Da; Harmonics for a record its caller does not know to be in the hot
// store): a record that is not resident is left out of the memo; lookup
// counts the miss and returns nil, and the caller computes the one
// value it wants.
//
// pre, when non-nil, is rec's bundle already folded off the memo
// (foldDetached): a miss plants it and counts the miss its fold was; if
// a reader made the record resident first, pre is dropped — a record
// never has two bundles.
func (ls *LiveState) lookup(rec *store.Record, plant bool, pre *feat, want func(f *feat, folded bool) (dsp bool)) *feat {
	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	f := ps.feats[rec]
	if f == nil && plant {
		if f = pre; f == nil {
			f = new(feat)
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
	if want != nil && want(f, dsp) {
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
// baseline installed — the D_a score, all from one PSD pass. It does
// not classify: the callers that need the fault report ask for it.
func (ls *LiveState) computeFeat(rec *store.Record, f *feat) {
	start := time.Now()
	f.Offsets = transform.Offsets(rec)
	f.RMS = transform.RMS(rec)
	base := ls.baseline.Load()
	// The spectrum lives in pooled scratch: the bundle keeps only what
	// is derived from it.
	transform.UsePSD(rec, func(freq, psd []float64) {
		f.VRMS = transform.VelocityRMSFromPSD(freq, psd, transform.ISOBandLoHz, transform.ISOBandHiHz)
		sc := peakPool.Get().(*peakScratch)
		raw, pinned := ls.extract(sc, freq, psd, base)
		f.harm = own(raw)
		if base != nil {
			f.daFor = base
			f.da.val, f.da.err = base.DaFromHarmonic(pinned)
		}
		peakPool.Put(sc)
	})
	f.folded = true
	metFolds.Inc()
	metFoldDur.Observe(time.Since(start).Seconds())
}

// peakScratch holds the peak lists one fold searches in: the bundle
// keeps a copy of the raw harmonic's peaks (own), and the pinned one
// only scores D_a.
type peakScratch struct{ raw, pinned []dsp.Peak }

var peakPool = sync.Pool{New: func() any { return new(peakScratch) }}

// extract runs the fold's harmonic extractions over one PSD, in sc's
// lists: raw for the configured options and, with base non-nil, pinned
// for the baseline's. ExtractHarmonic over this PSD is exactly
// HarmonicOfRecord: both feed the same transform.PSDInto output into
// the same peak search. At the training rate the baseline's Hz-pinned
// window is the raw options' bin count again, so one extraction serves
// both and pinned is raw.
func (ls *LiveState) extract(sc *peakScratch, freq, psd []float64, base *feature.Baseline) (raw, pinned feature.Harmonic) {
	raw = feature.ExtractHarmonicInto(sc.raw, freq, psd, ls.cfg.Harmonic)
	sc.raw = raw.Peaks
	pinned = raw
	if base != nil && !ls.sharesHarmonic(base, raw.BinHz, len(psd)) {
		pinned = feature.ExtractHarmonicInto(sc.pinned, freq, psd, base.Opt)
		sc.pinned = pinned.Peaks
	}
	return raw, pinned
}

// sharesHarmonic reports whether base's options and the configured ones
// are one extraction of a spectrum of bins bins, binHz apart — they
// resolve to the same options there. Then the harmonic the fold keeps
// is the one base.Da would extract, and scores it without a spectrum.
func (ls *LiveState) sharesHarmonic(base *feature.Baseline, binHz float64, bins int) bool {
	return base.Opt.ResolvedAt(binHz, bins) == ls.cfg.Harmonic.ResolvedAt(binHz, bins)
}

// classify fills f's fault report for the installed detector (f.mu
// held, or f detached) and reports whether one is installed.
func (ls *LiveState) classify(rec *store.Record, f *feat) bool {
	det := ls.detector.Load()
	if det == nil {
		return false
	}
	f.faultFor, f.fault = det, det.Detect(rec)
	return true
}

// feat returns the folded bundle of one record.
func (ls *LiveState) feat(rec *store.Record) *feat { return ls.lookup(rec, true, nil, nil) }

// foldDetached folds and classifies rec into a bundle the memo does not
// hold, for a caller that cannot know yet whether rec will be stored.
func (ls *LiveState) foldDetached(rec *store.Record) *feat {
	f := new(feat)
	ls.computeFeat(rec, f)
	ls.classify(rec, f)
	return f
}

// Fold caches the feature bundle of one record — what an ingest with
// no write-ahead log calls once the store took the record (a durable
// one folds during the append and plants after it, see Ingester), so
// the cache never holds features for records that were not accepted.
// A fresh record is its pump's new latest, the one a fault view reads
// next, so the call that folds it also classifies it when a detector
// is installed. Folding a record that is already resident is a hit:
// its bundle is kept.
func (ls *LiveState) Fold(rec *store.Record) {
	if rec != nil {
		ls.lookup(rec, true, nil, func(f *feat, folded bool) bool {
			return folded && ls.classify(rec, f)
		})
	}
}

// Warm pre-folds every record already in the store — the recovery
// path: after a snapshot load plus WAL replay rebuilds the measurement
// store, Warm rebuilds the live state so the first queries are already
// O(new data). With a detector installed it then classifies each
// pump's latest record, the only one a fault status or report reads;
// an earlier record is classified when a reader first asks for it.
// Pumps fan out across workers (<= 0 = GOMAXPROCS; 1 = sequential);
// each pump's misses are computed inline on its worker, so the fan-out
// is per pump, not nested. Warm is safe to run concurrently with
// ingest: a fold of a fresh append and a warm-time lookup of the same
// record compute it once. Returns the number of records folded.
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
		if len(recs) > 0 {
			ls.FaultReport(recs[len(recs)-1])
		}
		total.Add(int64(len(recs)))
	})
	metWarmDur.Observe(time.Since(start).Seconds())
	return int(total.Load())
}

// ensure returns the feature bundle of every record, aligned by index,
// folding the ones not folded yet across workers (<= 0 = GOMAXPROCS).
// recs is a store-order snapshot of one pump's series; ensure also
// evicts cache entries orphaned by a store reload (see evictOrphans).
func (ls *LiveState) ensure(pumpID int, recs []*store.Record, workers int) []*feat {
	out := make([]*feat, len(recs))
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
	fresh := make(map[*store.Record]*feat, len(recs))
	for _, rec := range recs {
		if f := ps.feats[rec]; f != nil {
			fresh[rec] = f
		}
	}
	metEvictions.Add(uint64(len(ps.feats) - len(fresh)))
	ls.size.Add(int64(len(fresh) - len(ps.feats)))
	ps.feats = fresh
}

// OffsetRows folds one pump's series (recs, in store order) and
// assembles its mean-shift input points — value-identical to
// preprocess.Averages over the same records, with the expensive
// per-record transforms served from cache.
func (ls *LiveState) OffsetRows(pumpID int, recs []*store.Record) [][]float64 {
	feats := ls.ensure(pumpID, recs, 0)
	out := make([][]float64, len(feats))
	flat := make([]float64, 3*len(feats))
	for i, f := range feats {
		row := flat[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = f.Offsets[0], f.Offsets[1], f.Offsets[2]
		out[i] = row
	}
	return out
}

// Da returns the D_a score of one record against the installed
// baseline, bit-identical to Baseline().Da(rec). A fold under that
// baseline already scored it. A resident record scored against an
// earlier baseline (or none: folded before the fit) is rescored from
// its kept harmonic when the baseline extracts that same harmonic at
// the record's resolution — no spectrum — and from a fresh one
// otherwise; either is one miss, and the score is kept. A record that
// is not resident is scored and left out of the memo: an engine
// classifying fresh captures it never stores (an edge device with a
// loaded model) must not keep each one's waveform alive.
func (ls *LiveState) Da(rec *store.Record) (float64, error) {
	return ls.da(rec, ls.baseline.Load())
}

// da is Da against base, loaded once by its caller: a concurrent
// SetBaseline leaves the score it keeps tagged stale.
func (ls *LiveState) da(rec *store.Record, base *feature.Baseline) (float64, error) {
	if base == nil {
		return 0, errors.New("stream: no baseline installed")
	}
	var s daScore
	if ls.lookup(rec, false, nil, func(f *feat, _ bool) bool {
		if f.daFor == base {
			s = f.da
			return false
		}
		if ls.sharesHarmonic(base, f.harm.BinHz, rec.Samples()) {
			s.val, s.err = base.DaFromHarmonic(f.harm)
		} else {
			s.val, s.err = base.Da(rec)
		}
		f.daFor, f.da = base, s
		return true
	}) == nil {
		return base.Da(rec)
	}
	return s.val, s.err
}

// DaSeries scores the selected records of one pump against the
// installed baseline, returned as base, and assembles the (service day,
// D_a) series in index order, skipping records whose score errors — the
// same selection the batch trend pipeline makes. recs is the series
// OffsetRows just made resident, so every score is a memo read.
func (ls *LiveState) DaSeries(recs []*store.Record, idx []int) (days, das []float64, base *feature.Baseline) {
	base = ls.baseline.Load()
	scores := make([]daScore, len(idx))
	par.ForEach(len(idx), 0, func(k int) {
		scores[k].val, scores[k].err = ls.da(recs[idx[k]], base)
	})
	days = make([]float64, 0, len(idx))
	das = make([]float64, 0, len(idx))
	for k, s := range scores {
		if s.err == nil {
			days = append(days, recs[idx[k]].ServiceDays)
			das = append(das, s.val)
		}
	}
	return days, das, base
}

// Harmonics returns the harmonic feature of every record for
// Config.Harmonic — the engine's Fit-time corpus scan. Results are
// identical to feature.HarmonicOfRecord per record. hot[i] (nil: false
// for every record) says recs[i] is held by the hot store: it is folded
// and planted, the fold Warm would run, and the harmonic is the one its
// bundle keeps. A record that is not hot — a labelled measurement the
// compactor moved to the cold tier — is served from the memo if it is
// resident and otherwise has its harmonic extracted and is left out of
// the memo.
func (ls *LiveState) Harmonics(recs []*store.Record, hot []bool) []feature.Harmonic {
	return par.Map(len(recs), 0, func(i int) feature.Harmonic {
		if f := ls.lookup(recs[i], hot != nil && hot[i], nil, nil); f != nil {
			return f.harm
		}
		return feature.HarmonicOfRecord(recs[i], ls.cfg.Harmonic)
	})
}

// FaultReport classifies one record with the installed detector,
// identical to FaultDetector().Detect(rec) — the batch-equivalence
// harness pins this across randomized ingestion orders — and is the
// zero report when none is installed. An ingest or warm-up under the
// same detector may already have classified it; otherwise the first
// call folds the record if it must and classifies it, and the report is
// kept for the next.
func (ls *LiveState) FaultReport(rec *store.Record) (rep feature.FaultReport) {
	det := ls.detector.Load()
	if det == nil {
		return rep
	}
	ls.lookup(rec, true, nil, func(f *feat, _ bool) bool {
		if f.faultFor == det {
			rep = f.fault
			return false
		}
		f.faultFor, f.fault = det, det.Detect(rec)
		rep = f.fault
		return true
	})
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
