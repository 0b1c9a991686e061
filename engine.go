package vibepm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vibepm/internal/core"
	"vibepm/internal/gencache"
	"vibepm/internal/par"
	"vibepm/internal/physics"
	"vibepm/internal/preprocess"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// Options configures an Engine. The zero value selects the paper's
// defaults everywhere.
type Options struct {
	// Harmonic tunes the peak extraction (defaults: n_p = 20,
	// n_h = 24).
	Harmonic HarmonicOptions
}

// The pipeline's fixed settings. The rest of its calibration is fixed
// one layer down, where it is read: mean shift's adaptive bandwidth in
// internal/preprocess, the RANSAC settings in internal/core, the peak
// significance cutoff and the fault thresholds in internal/feature.
const (
	// smoothingWindowDays is the moving-average window applied to the
	// D_a trend before RUL fitting.
	smoothingWindowDays = 1
	// labelMatchToleranceDays is how far a label may sit from its
	// measurement in time and still be paired with it (the paper's
	// measurements and labels share timestamps).
	labelMatchToleranceDays = 0.51
)

// Engine is the end-to-end analysis pipeline of the paper's Fig. 7:
// ingest measurements and labels, fit the Zone A baseline, the zone
// classifier and the D_a decision boundary, learn fleet lifetime
// models, and project per-pump RUL. There is one analysis path: every
// per-record value (the offsets mean shift reads, the harmonic peaks,
// D_a, the fault report) is read through the engine's live state, which
// computes it once per record and memoizes it; the pure functions it
// memoizes (BatchCleanTrend, Baseline.Da, FaultDetector.Detect) survive
// as the references the equivalence proofs compare it against. Engine
// methods are not safe for concurrent mutation; the underlying stores
// are safe for concurrent reads.
type Engine struct {
	opts         Options
	measurements *Measurements
	labels       *Labels

	classifier *core.GaussianClassifier
	densities  *ZoneDensities // Fit's; nil after LoadModel
	boundary   float64
	models     *LifetimeModels

	// trends memoizes CleanTrend per pump; an entry is valid while the
	// pump's series generation is unchanged and the same baseline is in
	// force, so a hit never touches the record slices at all. The
	// repeated-experiment pattern (Table IV, headline, ablations over
	// the same corpus) otherwise recomputes identical 100k-measurement
	// scans. Cached points hold the raw service day in AgeDays; the
	// caller's ageOf is applied per call.
	trends *gencache.Cache[int, trendTag, []TrendPoint]

	// live is the incremental feature cache, built with the engine:
	// expensive per-record transforms (PSD, harmonic peaks, D_a) are
	// folded once — at ingest, or on first analysis of a record the
	// engine did not ingest — and every later read is a memo hit. The
	// values are bit-identical to the pure functions (see
	// internal/stream). It is the one holder of the installed fit: the
	// Zone A baseline (Fit, LoadModel) and the fault detector
	// (EnableFaults, SetMachineSpec) live there and nowhere else.
	live *stream.LiveState

	// cold, when non-nil, is the tiered store's compressed partition
	// tier. Fit reaches into it for labelled measurements the compactor
	// evicted from the hot store (decompressing only the pumps that
	// carry labels below the cold bound); routine trend/fleet analysis
	// stays on the hot window.
	cold *store.ColdStore
}

// trendTag is what a cached trend was computed from.
type trendTag struct {
	gen      uint64
	baseline *Baseline
}

// maxCachedTrends bounds the per-pump trend cache; past it a new pump
// evicts an arbitrary other one.
const maxCachedTrends = 1 << 16

// New builds an engine with fresh stores.
func New(opts Options) *Engine { return NewWithStores(opts, nil, nil) }

// NewWithStores builds an engine over existing stores (e.g. loaded from
// disk or filled by a gateway).
func NewWithStores(opts Options, m *Measurements, l *Labels) *Engine {
	if m == nil {
		m = store.NewMeasurements()
	}
	if l == nil {
		l = store.NewLabels()
	}
	return &Engine{
		opts: opts, measurements: m, labels: l,
		trends: gencache.New[int, trendTag, []TrendPoint](maxCachedTrends),
		live:   stream.NewLiveState(stream.Config{Harmonic: opts.Harmonic}),
	}
}

// Measurements exposes the engine's measurement store.
func (e *Engine) Measurements() *Measurements { return e.measurements }

// Labels exposes the engine's label store.
func (e *Engine) Labels() *Labels { return e.labels }

// AttachCold connects the tiered store's cold partition tier so Fit
// can pair labels with measurements the compactor has moved out of the
// hot store. Pass the Durable's Cold() when tiering is enabled.
func (e *Engine) AttachCold(c *ColdStore) { e.cold = c }

// Cold returns the attached cold tier, or nil.
func (e *Engine) Cold() *ColdStore { return e.cold }

// Ingest adds one measurement through the same seam REST and the
// gateway write through (stream.Ingester): rec is validated, its
// SampleRateHz and ScaleG are rounded in place to the float32 the codec
// keeps, and it is folded into the live state only if the store took it.
// stored is false for a repeat of a held (pump, service time); err wraps
// ErrInvalidRecord for a record that cannot be stored. Trend-cache
// invalidation is implicit: the store bumps the pump's series
// generation, which the cache keys on.
func (e *Engine) Ingest(rec *Record) (stored bool, err error) {
	in := stream.Ingester{Store: e.measurements, Live: e.live}
	return in.Ingest(rec)
}

// AddLabel adds one expert label.
func (e *Engine) AddLabel(l Label) error { return e.labels.Add(l) }

// Errors returned by the training and inference entry points.
var (
	ErrNotFitted  = errors.New("vibepm: engine not fitted — call Fit first")
	ErrNoRULModel = errors.New("vibepm: lifetime models not learned — call LearnLifetimeModels first")
	ErrNoData     = errors.New("vibepm: no data")
	// ErrInvalidRecord is what Ingest wraps when it refuses a record.
	ErrInvalidRecord = stream.ErrInvalidRecord
)

// labelledPair joins a label with the nearest stored measurement of the
// same pump.
type labelledPair struct {
	rec  *Record
	zone Zone
	// hot says rec came from the hot store, not the cold tier: only a
	// hot record may be planted in the live memo.
	hot bool
}

func (e *Engine) labelledPairs() []labelledPair {
	var out []labelledPair
	const tol = labelMatchToleranceDays
	// coldByPump lazily caches cold decompression per pump: only pumps
	// whose label windows dip below the cold coverage bound pay it, and
	// only once per fit.
	var coldByPump map[int][]*Record
	for _, lab := range e.labels.Valid() {
		recs := e.measurements.Query(lab.PumpID, lab.ServiceDays-tol, lab.ServiceDays+tol)
		hot := len(recs) // recs[hot:] are cold
		if e.cold != nil && lab.ServiceDays-tol < e.cold.UpTo() {
			if coldByPump == nil {
				coldByPump = make(map[int][]*Record)
			}
			cr, ok := coldByPump[lab.PumpID]
			if !ok {
				// A cold read failure leaves cr nil: the label falls back
				// to whatever is still hot rather than failing the fit.
				cr, _ = e.cold.Records(lab.PumpID)
				coldByPump[lab.PumpID] = cr
			}
			for _, r := range cr {
				if r.ServiceDays < lab.ServiceDays-tol || r.ServiceDays > lab.ServiceDays+tol {
					continue
				}
				// Hot wins on equal service time: a crash between a
				// partition rename and the next snapshot can leave the
				// same record in both tiers.
				dup := false
				for _, h := range recs {
					if h.ServiceDays == r.ServiceDays {
						dup = true
						break
					}
				}
				if !dup {
					recs = append(recs, r)
				}
			}
		}
		if len(recs) == 0 {
			continue
		}
		best := 0
		bestGap := math.Abs(recs[0].ServiceDays - lab.ServiceDays)
		for i, r := range recs[1:] {
			if gap := math.Abs(r.ServiceDays - lab.ServiceDays); gap < bestGap {
				best, bestGap = i+1, gap
			}
		}
		out = append(out, labelledPair{rec: recs[best], zone: lab.Zone, hot: best < hot})
	}
	return out
}

// Fit trains the full pipeline from the stored measurements and labels:
//  1. pair labels with measurements;
//  2. train the Zone A baseline (harmonic exemplar + PSD statistics);
//  3. score every labelled measurement with the peak-harmonic distance
//     D_a and fit the per-zone densities (Fig. 11);
//  4. train the zone classifier and locate the BC/D decision boundary.
func (e *Engine) Fit() error {
	start := time.Now()
	defer func() { metFitDuration.Observe(time.Since(start).Seconds()) }()
	pairs := e.labelledPairs()
	if len(pairs) == 0 {
		return fmt.Errorf("%w: no labelled measurements", ErrNoData)
	}
	// The scan trains the baseline on the Zone A pairs and, since
	// Algorithm 1 normalizes by the dataset-global peak maxima, reads
	// the harmonic of the whole labelled corpus (worn spectra included)
	// before scoring: one transform per labelled record. A hot record's
	// is folded and planted, as a warm-up would, and the harmonic is
	// the one the bundle keeps; the fold keeps the record's Euclidean
	// and Mahalanobis scores against baseline too, whose PSD statistics
	// SetNormalizers leaves as they are, so the metric sweep's vector
	// columns read them. A Zone A record's spectrum is the one its
	// baseline statistics were summed from. A cold record is extracted
	// and not kept.
	labelled := make([]*Record, len(pairs))
	hot := make([]bool, len(pairs))
	zoneA := make([]bool, len(pairs))
	for i, p := range pairs {
		labelled[i], hot[i], zoneA[i] = p.rec, p.hot, p.zone == ZoneA
	}
	baseline, features, err := e.live.FitScan(labelled, hot, zoneA)
	if err != nil {
		return fmt.Errorf("vibepm: baseline: %w", err)
	}
	baseline.SetNormalizers(features...)
	// Install only once the normalizers are set: folds score D_a
	// against the installed baseline at ingest time.
	e.live.SetBaseline(baseline)
	// The scan folded before there was a baseline to score against, so
	// score the hot pairs now, from their kept harmonics: every later
	// reader of their D_a (Fig. 11, the metric sweep, the trends) hits.
	par.ForEach(len(pairs), 0, func(i int) {
		if hot[i] {
			e.live.Da(labelled[i])
		}
	})

	samples := make([]core.Sample, 0, len(pairs))
	for i, p := range pairs {
		da, err := baseline.DaFromHarmonic(features[i])
		if err != nil {
			continue
		}
		samples = append(samples, core.Sample{Score: da, Zone: p.zone})
	}
	if len(samples) == 0 {
		return fmt.Errorf("%w: no scorable labelled measurements", ErrNoData)
	}
	classifier, err := core.TrainGaussian(samples)
	if err != nil {
		return fmt.Errorf("vibepm: classifier: %w", err)
	}
	e.classifier = classifier
	densities, err := core.FitDensities(samples)
	if err != nil {
		return fmt.Errorf("vibepm: densities: %w", err)
	}
	e.densities = densities
	if b, err := densities.BoundaryBCD(); err == nil {
		e.boundary = b
	} else {
		// Fall back to a boundary of 0 when a class is missing;
		// classification still works.
		e.boundary = 0
	}
	return nil
}

// Fitted reports whether Fit has completed.
func (e *Engine) Fitted() bool { return e.live.Baseline() != nil && e.classifier != nil }

// Baseline returns the Zone A baseline installed in the live state.
func (e *Engine) Baseline() (*Baseline, error) {
	b := e.live.Baseline()
	if b == nil {
		return nil, ErrNotFitted
	}
	return b, nil
}

// Boundary returns the learned BC/D decision boundary on D_a (the
// paper's 0.21), or an error before Fit.
func (e *Engine) Boundary() (float64, error) {
	if !e.Fitted() {
		return 0, ErrNotFitted
	}
	return e.boundary, nil
}

// Densities returns the per-zone D_a densities Fit estimated from the
// labelled measurements (Fig. 11), the ones it located the boundary
// between. It errors before Fit and after LoadModel: a model keeps the
// boundary, not the densities.
func (e *Engine) Densities() (*ZoneDensities, error) {
	if !e.Fitted() || e.densities == nil {
		return nil, ErrNotFitted
	}
	return e.densities, nil
}

// Da scores one measurement with the peak-harmonic distance from the
// Zone A baseline.
func (e *Engine) Da(rec *Record) (float64, error) {
	if e.live.Baseline() == nil {
		return 0, ErrNotFitted
	}
	return e.live.Da(rec)
}

// Classify predicts the health zone of one measurement and returns the
// posterior probabilities (equations (1)–(2) of the paper).
func (e *Engine) Classify(rec *Record) (Zone, map[Zone]float64, error) {
	if !e.Fitted() {
		return ZoneUnknown, nil, ErrNotFitted
	}
	da, err := e.Da(rec)
	if err != nil {
		return ZoneUnknown, nil, err
	}
	return e.classifier.Predict(da), e.classifier.Probabilities(da), nil
}

// AgeFunc maps (pumpID, serviceDays) to the equipment's age since
// installation — information the factory database provides in the real
// deployment.
type AgeFunc func(pumpID int, serviceDays float64) float64

// CleanTrend extracts one pump's cleaned D_a trend: invalid
// measurements removed by mean shift outlier detection, D_a computed
// against the baseline, smoothed with the one-day moving-average
// window, and mapped to equipment age with ageOf.
func (e *Engine) CleanTrend(pumpID int, ageOf AgeFunc) ([]TrendPoint, error) {
	base := e.live.Baseline()
	if base == nil {
		return nil, ErrNotFitted
	}
	// Reading the generation before the records keeps a stale tag
	// conservative: a racing append only forces one extra rebuild.
	gen := e.measurements.Generation(pumpID)
	if gen == 0 {
		return nil, fmt.Errorf("%w: pump %d has no measurements", ErrNoData, pumpID)
	}
	tag := trendTag{gen: gen, baseline: base}
	cached, hit, err := e.trends.Get(pumpID, tag, func() ([]TrendPoint, trendTag, error) {
		recs := e.measurements.All(pumpID)
		if len(recs) == 0 {
			return nil, tag, fmt.Errorf("%w: pump %d has no measurements", ErrNoData, pumpID)
		}
		start := time.Now()
		defer func() { metAnalyzeTrend.Observe(time.Since(start).Seconds()) }()
		// Per-record transforms come from the live memo; only the cheap
		// global passes (mean shift over the 3-D offsets, smoothing) run
		// over the full series. Values are bit-identical to batchTrend.
		validIdx, _, err := preprocess.DetectOutliersPoints(e.live.OffsetRows(pumpID, recs), preprocess.OutlierConfig{})
		if err != nil {
			return nil, tag, err
		}
		// The entry is tagged with the baseline DaSeries scored against,
		// which a concurrent install may have made newer than base.
		days, das, scored := e.live.DaSeries(recs, validIdx)
		trend, err := e.smoothTrend(pumpID, days, das)
		return trend, trendTag{gen: gen, baseline: scored}, err
	})
	if hit {
		metTrendCacheHits.Inc()
	} else {
		metTrendCacheMisses.Inc()
	}
	if err != nil {
		return nil, err
	}
	out := make([]TrendPoint, len(cached))
	for i, p := range cached {
		out[i] = TrendPoint{AgeDays: ageOf(pumpID, p.AgeDays), Da: p.Da}
	}
	return out, nil
}

// smoothTrend applies the moving-average window to a scored
// (service day, D_a) series.
func (e *Engine) smoothTrend(pumpID int, days, das []float64) ([]TrendPoint, error) {
	if len(days) == 0 {
		return nil, fmt.Errorf("%w: pump %d has no valid measurements", ErrNoData, pumpID)
	}
	smoothed := preprocess.SmoothSeries(days, das, smoothingWindowDays)
	out := make([]TrendPoint, len(days))
	for i := range days {
		out[i] = TrendPoint{AgeDays: days[i], Da: smoothed[i]}
	}
	return out, nil
}

// LearnLifetimeModels pools the cleaned trends of every pump in the
// store and runs recursive RANSAC to discover the fleet's lifetime
// models (Fig. 15). The learned BC/D boundary is used as the Zone D
// threshold for RUL projection.
func (e *Engine) LearnLifetimeModels(ageOf AgeFunc) (*LifetimeModels, error) {
	if !e.Fitted() {
		return nil, ErrNotFitted
	}
	// Clean every pump's trend concurrently; trends are concatenated in
	// ascending pump order afterwards, so the point stream RANSAC sees is
	// identical to the sequential loop's.
	pumps := e.measurements.Pumps()
	trends := par.Map(len(pumps), 0, func(i int) []TrendPoint {
		trend, err := e.CleanTrend(pumps[i], ageOf)
		if err != nil {
			return nil
		}
		return trend
	})
	var points []TrendPoint
	for _, trend := range trends {
		points = append(points, trend...)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: no trend points", ErrNoData)
	}
	models, err := core.LearnLifetimeModels(points, e.boundary)
	if err != nil {
		return nil, err
	}
	e.models = models
	return models, nil
}

// Models returns the learned lifetime models.
func (e *Engine) Models() (*LifetimeModels, error) {
	if e.models == nil {
		return nil, ErrNoRULModel
	}
	return e.models, nil
}

// PredictRUL assigns the best lifetime model to the pump's cleaned
// trend and projects the remaining useful lifetime in days (negative =
// already past the Zone D boundary).
func (e *Engine) PredictRUL(pumpID int, ageOf AgeFunc) (rulDays float64, modelIdx int, err error) {
	if e.models == nil {
		return 0, 0, ErrNoRULModel
	}
	trend, err := e.CleanTrend(pumpID, ageOf)
	if err != nil {
		return 0, 0, err
	}
	return e.models.PredictRULForTrend(trend)
}

// EvaluateMetric trains a fresh classifier on nTrain labelled samples
// scored by the given metric and evaluates it on the rest — one point
// of the paper's Fig. 12–14 sweep. temp supplies the FICS channel for
// MetricTemperature. The split is deterministic in seed.
func (e *Engine) EvaluateMetric(m Metric, nTrain int, temp TemperatureSource, seed int64) (*Confusion, error) {
	out, err := e.EvaluateMetricSweep(m, []int{nTrain}, temp, seed)
	if err != nil {
		return nil, err
	}
	return out[nTrain], nil
}

// EvaluateMetricSweep scores the labelled corpus once with the given
// metric and evaluates a classifier at every requested training size —
// the whole Fig. 12–14 column for one metric, without rescoring per
// point. The peak-harmonic scores are the memo's D_a, and the Euclidean
// and Mahalanobis scores the memo's vector scores: the fit's scan left
// all three for every hot labelled record, so a column computes no
// spectrum for them. The split at each size is deterministic in
// (seed, size).
func (e *Engine) EvaluateMetricSweep(m Metric, sizes []int, temp TemperatureSource, seed int64) (map[int]*Confusion, error) {
	base := e.live.Baseline()
	if base == nil {
		return nil, ErrNotFitted
	}
	pairs := e.labelledPairs()
	type scored struct {
		sample core.Sample
		ok     bool
	}
	results := par.Map(len(pairs), 0, func(i int) scored {
		var score float64
		var err error
		// D_a and the two vector scores are Score's cases, read through
		// the memo.
		switch m {
		case MetricPeakHarmonic:
			score, err = e.live.Da(pairs[i].rec)
		case MetricEuclidean:
			score, _, err = e.live.VectorScores(pairs[i].rec)
		case MetricMahalanobis:
			_, score, err = e.live.VectorScores(pairs[i].rec)
		default:
			score, err = base.Score(m, pairs[i].rec, temp)
		}
		if err != nil {
			return scored{}
		}
		return scored{sample: core.Sample{Score: score, Zone: pairs[i].zone}, ok: true}
	})
	samples := make([]core.Sample, 0, len(pairs))
	for _, r := range results {
		if r.ok {
			samples = append(samples, r.sample)
		}
	}
	out := make(map[int]*Confusion, len(sizes))
	for _, nTrain := range sizes {
		if len(samples) <= nTrain {
			return nil, fmt.Errorf("%w: %d scored samples for nTrain=%d", ErrNoData, len(samples), nTrain)
		}
		train, test := splitStratified(samples, nTrain, seed+int64(nTrain))
		classifier, err := core.TrainGaussian(train)
		if err != nil {
			return nil, err
		}
		out[nTrain] = core.Evaluate(classifier, test)
	}
	return out, nil
}

// splitStratified draws nTrain training samples proportionally to the
// zone priors (at least one per present zone) and returns the rest as
// the test set. Deterministic in seed.
func splitStratified(samples []core.Sample, nTrain int, seed int64) (train, test []core.Sample) {
	byZone := map[Zone][]core.Sample{}
	for _, s := range samples {
		byZone[s.Zone] = append(byZone[s.Zone], s)
	}
	zones := make([]Zone, 0, len(byZone))
	for _, z := range physics.MergedZones {
		if len(byZone[z]) > 0 {
			zones = append(zones, z)
		}
	}
	total := len(samples)
	rng := newSplitRNG(seed)
	for _, z := range zones {
		group := byZone[z]
		want := nTrain * len(group) / total
		if want < 1 {
			want = 1
		}
		if want > len(group)-1 {
			want = len(group) - 1
			if want < 1 {
				want = 1
			}
		}
		// Deterministic shuffle.
		idx := rng.Perm(len(group))
		for i, j := range idx {
			if i < want {
				train = append(train, group[j])
			} else {
				test = append(test, group[j])
			}
		}
	}
	return train, test
}
