// Package stream is the incremental analysis engine: it folds each
// ingested measurement into a per-record feature bundle — the per-axis
// zero offsets, the RMS and velocity-RMS scalars, the DCT-PSD harmonic
// peaks, and the peak-harmonic distance D_a — exactly once, at ingest
// time, so every later analysis pass (trend cleaning, fleet reports,
// the REST trend endpoints) reads cached scalars instead of
// re-transforming raw waveforms.
//
// The load-bearing guarantee is batch equivalence: every cached value
// is produced by the *same* function the batch engine calls
// (transform.Offsets, transform.RMS, feature.HarmonicOfRecord,
// Baseline.DaFromHarmonic), on the same record, so an analysis built
// from the cache is bit-identical to one recomputed from scratch — not
// merely close. The global-but-cheap steps (mean shift outlier
// detection, moving-average smoothing) still run over the full scalar
// series on every query; only the expensive per-record transforms
// (three DCTs, peak search) are O(new data). The equivalence property
// harness (live_test.go at the repository root) ingests fleets in
// randomized orders and asserts the incremental and batch pipelines
// agree at every prefix.
//
// Cache entries are keyed by record pointer — the store holds records
// by reference and never mutates them — so out-of-order arrivals,
// duplicate suppression, and mid-series inserts need no special
// casing: the store's ordering is re-read on every assembly and the
// cache is a pure memo. A store reload (snapshot restore, maintenance
// reset) orphans the old pointers; assembly detects the bloat and
// evicts entries no longer reachable from the store.
package stream

import (
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

// harmSlot caches one harmonic feature keyed by the exact (unfilled)
// option value it was extracted with: the engine scans with its raw
// options while a trained baseline pins the smoothing window in Hz, so
// one record commonly holds two slots.
type harmSlot struct {
	opt feature.Options
	h   feature.Harmonic
}

// maxHarmSlots bounds the per-record harmonic variants retained. Two
// covers the steady state (raw engine options + baseline options); a
// third appears only transiently across a re-Fit with changed options.
const maxHarmSlots = 3

// daSlot caches the D_a score against one baseline identity.
type daSlot struct {
	base *feature.Baseline
	val  float64
	err  error
}

// Feat is the per-record feature bundle. Offsets, RMS and VRMS are
// immutable after the fold; the harmonic and D_a slots fill lazily
// under the owning pump's lock as baselines and option sets appear.
type Feat struct {
	// Offsets is transform.Offsets(rec) — the mean-shift outlier
	// detector's input point.
	Offsets [3]float64
	// RMS is transform.RMS(rec), the r_mn feature.
	RMS float64
	// VRMS is transform.VelocityRMS(rec, lo, hi) over the ISO band the
	// REST trend endpoint serves.
	VRMS float64

	harms  []harmSlot
	da     []daSlot
	faults []faultSlot
}

// harmonic returns the cached feature for opt, if present.
func (f *Feat) harmonic(opt feature.Options) (feature.Harmonic, bool) {
	for _, s := range f.harms {
		if s.opt == opt {
			return s.h, true
		}
	}
	return feature.Harmonic{}, false
}

// putHarmonic inserts (or replaces) the slot for opt.
func (f *Feat) putHarmonic(opt feature.Options, h feature.Harmonic) {
	for i, s := range f.harms {
		if s.opt == opt {
			f.harms[i].h = h
			return
		}
	}
	if len(f.harms) >= maxHarmSlots {
		// Drop the oldest variant; it belongs to a retired option set.
		copy(f.harms, f.harms[1:])
		f.harms = f.harms[:maxHarmSlots-1]
	}
	f.harms = append(f.harms, harmSlot{opt: opt, h: h})
}

// daFor returns the cached D_a against base, if present.
func (f *Feat) daFor(base *feature.Baseline) (float64, error, bool) {
	for _, s := range f.da {
		if s.base == base {
			return s.val, s.err, true
		}
	}
	return 0, nil, false
}

// putDa caches the D_a against base, keeping at most the two most
// recent baseline identities (current + the one a re-Fit replaces).
func (f *Feat) putDa(base *feature.Baseline, val float64, err error) {
	for i, s := range f.da {
		if s.base == base {
			f.da[i] = daSlot{base: base, val: val, err: err}
			return
		}
	}
	if len(f.da) >= 2 {
		copy(f.da, f.da[1:])
		f.da = f.da[:1]
	}
	f.da = append(f.da, daSlot{base: base, val: val, err: err})
}

// streamShardCount mirrors the store's sharding so per-pump lock
// domains line up with ingestion's.
const streamShardCount = 16

type liveShard struct {
	mu    sync.Mutex
	pumps map[int]*pumpState
}

// pumpState is one pump's feature memo. Its mutex serializes cache
// mutation; the expensive transforms always run outside it.
type pumpState struct {
	mu    sync.Mutex
	feats map[*store.Record]*Feat
}

// LiveState is the process-wide incremental feature cache, safe for
// concurrent use. One instance is shared by the ingestion paths
// (gateway, REST ingest, WAL recovery warm-up) and the analysis
// readers (engine trend cleaning, fleet reports, trend endpoints).
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

// computeFeat builds the full feature bundle of one record: the cheap
// scalars, the harmonic variant(s) for the configured options and the
// installed baseline, and — when a baseline is installed — the D_a
// score. One PSD pass feeds every spectral product.
func (ls *LiveState) computeFeat(rec *store.Record, base *feature.Baseline) *Feat {
	start := time.Now()
	f := &Feat{
		Offsets: transform.Offsets(rec),
		RMS:     transform.RMS(rec),
	}
	if base != nil {
		// The raw-option variant plus the baseline's.
		f.harms = make([]harmSlot, 0, 2)
	}
	freq, psd := transform.PSD(rec)
	f.VRMS = transform.VelocityRMSFromPSD(freq, psd, transform.ISOBandLoHz, transform.ISOBandHiHz)
	// ExtractHarmonic over this PSD is exactly HarmonicOfRecord: both
	// feed the same transform.PSDInto output into the same peak search.
	f.putHarmonic(ls.cfg.Harmonic, feature.ExtractHarmonic(freq, psd, ls.cfg.Harmonic))
	if base != nil {
		h, ok := f.harmonic(base.Opt)
		if !ok {
			h = feature.ExtractHarmonic(freq, psd, base.Opt)
			f.putHarmonic(base.Opt, h)
		}
		da, err := base.DaFromHarmonic(h)
		f.putDa(base, da, err)
	}
	if det := ls.detector.Load(); det != nil {
		f.putFault(det, det.Detect(rec))
	}
	metFolds.Inc()
	metFoldDur.Observe(time.Since(start).Seconds())
	return f
}

// Fold computes and caches the feature bundle of one record — the
// ingest-time entry point, called after the write is acknowledged
// (post-WAL-ack on the durable path) so the cache never holds features
// for records that were not accepted.
func (ls *LiveState) Fold(rec *store.Record) {
	if rec == nil {
		return
	}
	f := ls.computeFeat(rec, ls.baseline.Load())
	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	if _, ok := ps.feats[rec]; !ok {
		ls.size.Add(1)
	}
	ps.feats[rec] = f
	ps.mu.Unlock()
}

// Warm pre-folds every record already in the store — the recovery
// path: after a snapshot load plus WAL replay rebuilds the measurement
// store, Warm rebuilds the live state so the first queries are already
// O(new data). Pumps fan out across workers (<= 0 = GOMAXPROCS;
// 1 = sequential); each pump's misses are computed inline on its
// worker, so the fan-out is per pump, not nested. Warm is safe to run
// concurrently with ingest: folds of fresh appends and warm-time
// Ensure calls converge on identical feature values, and the cache
// keeps whichever landed first. Returns the number of records folded.
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

// ResetPump drops one pump's cached features — the maintenance-event
// reset: after a physical overhaul invalidates a pump's history, the
// next assembly rebuilds from whatever the store then holds.
func (ls *LiveState) ResetPump(pumpID int) {
	sh := &ls.shards[uint(pumpID)%streamShardCount]
	sh.mu.Lock()
	ps := sh.pumps[pumpID]
	delete(sh.pumps, pumpID)
	sh.mu.Unlock()
	if ps != nil {
		ps.mu.Lock()
		ls.size.Add(-int64(len(ps.feats)))
		ps.feats = make(map[*store.Record]*Feat)
		ps.mu.Unlock()
	}
}

// Reset drops every cached feature.
func (ls *LiveState) Reset() {
	for i := range ls.shards {
		sh := &ls.shards[i]
		sh.mu.Lock()
		for id, ps := range sh.pumps {
			ps.mu.Lock()
			ls.size.Add(-int64(len(ps.feats)))
			ps.feats = make(map[*store.Record]*Feat)
			ps.mu.Unlock()
			delete(sh.pumps, id)
		}
		sh.mu.Unlock()
	}
}

// Ensure returns the feature bundle of every record, aligned by index,
// computing (in parallel) and caching the ones not folded yet. recs is
// a store-order snapshot of one pump's series; Ensure also evicts
// cache entries orphaned by a store reload when the cache has grown
// past twice the live series.
func (ls *LiveState) Ensure(pumpID int, recs []*store.Record) []*Feat {
	return ls.ensure(pumpID, recs, 0)
}

// ensure implements Ensure with an explicit worker count for the
// miss fan-out — Warm passes 1 so its per-pump workers compute misses
// inline instead of nesting pools.
func (ls *LiveState) ensure(pumpID int, recs []*store.Record, workers int) []*Feat {
	ps := ls.pump(pumpID)
	out := make([]*Feat, len(recs))
	var missIdx []int
	ps.mu.Lock()
	for i, rec := range recs {
		if f := ps.feats[rec]; f != nil {
			out[i] = f
		} else {
			missIdx = append(missIdx, i)
		}
	}
	ps.mu.Unlock()
	if len(missIdx) > 0 {
		metMisses.Add(uint64(len(missIdx)))
		base := ls.baseline.Load()
		feats := par.Map(len(missIdx), workers, func(j int) *Feat {
			return ls.computeFeat(recs[missIdx[j]], base)
		})
		ps.mu.Lock()
		for j, i := range missIdx {
			if f := ps.feats[recs[i]]; f != nil {
				// A concurrent fold won the race; both bundles carry
				// identical values, keep the resident one.
				out[i] = f
				continue
			}
			ps.feats[recs[i]] = feats[j]
			ls.size.Add(1)
			out[i] = feats[j]
		}
		ps.mu.Unlock()
	}
	metHits.Add(uint64(len(recs) - len(missIdx)))
	ls.evictOrphans(ps, recs)
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

// Da returns the D_a score of one record against base, computing and
// caching it on first request. The result is bit-identical to
// base.Da(rec).
func (ls *LiveState) Da(rec *store.Record, base *feature.Baseline) (float64, error) {
	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	f := ps.feats[rec]
	if f != nil {
		if val, err, ok := f.daFor(base); ok {
			ps.mu.Unlock()
			metHits.Inc()
			return val, err
		}
		if h, ok := f.harmonic(base.Opt); ok {
			val, err := base.DaFromHarmonic(h)
			f.putDa(base, val, err)
			ps.mu.Unlock()
			return val, err
		}
	}
	ps.mu.Unlock()
	metMisses.Inc()
	// Slow path: the record was never folded (or folded before this
	// baseline's options existed). Compute outside the lock, then memo.
	var nf *Feat
	if f == nil {
		nf = ls.computeFeat(rec, base)
	}
	h := feature.HarmonicOfRecord(rec, base.Opt)
	val, err := base.DaFromHarmonic(h)
	ps.mu.Lock()
	if cur := ps.feats[rec]; cur != nil {
		f = cur
	} else if nf != nil {
		ps.feats[rec] = nf
		ls.size.Add(1)
		f = nf
	}
	if f != nil {
		f.putHarmonic(base.Opt, h)
		f.putDa(base, val, err)
	}
	ps.mu.Unlock()
	return val, err
}

// DaSeries scores the selected records of one pump against base and
// assembles the (service day, D_a) series in index order, skipping
// records whose score errors — the same selection the batch trend
// pipeline makes. feats must come from Ensure over the same recs.
func (ls *LiveState) DaSeries(pumpID int, recs []*store.Record, feats []*Feat, idx []int, base *feature.Baseline) (days, das []float64) {
	ps := ls.pump(pumpID)
	// First pass under the lock: collect cached scores and the misses.
	type miss struct {
		pos int // position in idx
		h   feature.Harmonic
		ok  bool // harmonic cached; only the distance is missing
	}
	vals := make([]float64, len(idx))
	errs := make([]bool, len(idx))
	var misses []miss
	ps.mu.Lock()
	for k, i := range idx {
		f := feats[i]
		if val, err, ok := f.daFor(base); ok {
			vals[k], errs[k] = val, err != nil
			continue
		}
		if h, ok := f.harmonic(base.Opt); ok {
			misses = append(misses, miss{pos: k, h: h, ok: true})
			continue
		}
		misses = append(misses, miss{pos: k})
	}
	ps.mu.Unlock()
	if len(misses) > 0 {
		type scored struct {
			val float64
			err error
			h   feature.Harmonic
		}
		results := par.Map(len(misses), 0, func(j int) scored {
			ms := misses[j]
			h := ms.h
			if !ms.ok {
				h = feature.HarmonicOfRecord(recs[idx[ms.pos]], base.Opt)
			}
			val, err := base.DaFromHarmonic(h)
			return scored{val: val, err: err, h: h}
		})
		ps.mu.Lock()
		for j, ms := range misses {
			r := results[j]
			f := feats[idx[ms.pos]]
			if !ms.ok {
				f.putHarmonic(base.Opt, r.h)
			}
			f.putDa(base, r.val, r.err)
			vals[ms.pos], errs[ms.pos] = r.val, r.err != nil
		}
		ps.mu.Unlock()
	}
	days = make([]float64, 0, len(idx))
	das = make([]float64, 0, len(idx))
	for k, i := range idx {
		if errs[k] {
			continue
		}
		days = append(days, recs[i].ServiceDays)
		das = append(das, vals[k])
	}
	return days, das
}

// Harmonics returns the harmonic feature of every record for opt —
// the engine's Fit-time corpus scan, cache-served after ingest folds.
// Results are identical to feature.HarmonicOfRecord per record.
func (ls *LiveState) Harmonics(recs []*store.Record, opt feature.Options) []feature.Harmonic {
	// Group by pump so each lookup hits the owning memo.
	out := make([]feature.Harmonic, len(recs))
	var missIdx []int
	for i, rec := range recs {
		ps := ls.pump(rec.PumpID)
		ps.mu.Lock()
		if f := ps.feats[rec]; f != nil {
			if h, ok := f.harmonic(opt); ok {
				out[i] = h
				ps.mu.Unlock()
				metHits.Inc()
				continue
			}
		}
		ps.mu.Unlock()
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return out
	}
	metMisses.Add(uint64(len(missIdx)))
	hs := par.Map(len(missIdx), 0, func(j int) feature.Harmonic {
		return feature.HarmonicOfRecord(recs[missIdx[j]], opt)
	})
	for j, i := range missIdx {
		out[i] = hs[j]
		rec := recs[i]
		ps := ls.pump(rec.PumpID)
		ps.mu.Lock()
		if f := ps.feats[rec]; f != nil {
			f.putHarmonic(opt, hs[j])
		}
		ps.mu.Unlock()
	}
	return out
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

// feat returns the (folding if needed) bundle of one record.
func (ls *LiveState) feat(rec *store.Record) *Feat {
	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	f := ps.feats[rec]
	ps.mu.Unlock()
	if f != nil {
		metHits.Inc()
		return f
	}
	metMisses.Inc()
	nf := ls.computeFeat(rec, ls.baseline.Load())
	ps.mu.Lock()
	if cur := ps.feats[rec]; cur != nil {
		nf = cur
	} else {
		ps.feats[rec] = nf
		ls.size.Add(1)
	}
	ps.mu.Unlock()
	return nf
}
