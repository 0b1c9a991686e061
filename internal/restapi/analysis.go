package restapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"vibepm"
	"vibepm/internal/gencache"
	"vibepm/internal/obs"
)

// Analysis serves the derived results of a fitted engine — zone
// classification, the decision boundary, RUL projections, and the fleet
// report — on top of the raw data retrieval API.
type Analysis struct {
	eng   *vibepm.Engine
	ageOf vibepm.AgeFunc
	mux   *http.ServeMux
	// Lifetime-model learning is expensive; do it at most once, lazily.
	learnOnce sync.Once
	learnErr  error

	// fleet holds the one serialized fleet response, valid while no
	// series in the store has mutated (GenerationTotal), the partition
	// list is unchanged and model readiness is the same.
	fleet *gencache.Cache[struct{}, respTag, *cachedResp]
}

// NewAnalysis wraps a fitted engine. ageOf supplies equipment install
// ages for RUL; nil limits the API to classification.
func NewAnalysis(eng *vibepm.Engine, ageOf vibepm.AgeFunc) *Analysis {
	a := &Analysis{
		eng: eng, ageOf: ageOf, mux: http.NewServeMux(),
		fleet: gencache.New[struct{}, respTag, *cachedResp](1),
	}
	handle := func(pattern string, h http.HandlerFunc) {
		a.mux.HandleFunc(pattern, instrumentHandler(obs.Default, pattern, h))
	}
	handle("GET /api/v1/analysis/boundary", a.handleBoundary)
	handle("GET /api/v1/analysis/pumps/{id}/zone", a.handleZone)
	handle("GET /api/v1/analysis/pumps/{id}/rul", a.handleRUL)
	handle("GET /api/v1/analysis/fleet", a.handleFleet)
	return a
}

// ServeHTTP implements http.Handler.
func (a *Analysis) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

func (a *Analysis) handleBoundary(w http.ResponseWriter, _ *http.Request) {
	b, err := a.eng.Boundary()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"boundary_da": b})
}

func (a *Analysis) handleZone(w http.ResponseWriter, r *http.Request) {
	id, err := pumpID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pump id")
		return
	}
	rep, err := a.eng.Report(id, nil)
	if err != nil {
		code := http.StatusNotFound
		if errors.Is(err, vibepm.ErrNotFitted) {
			// Like boundary, rul and fleet: the server's state, not a
			// missing resource.
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pump_id":      rep.PumpID,
		"service_days": rep.ServiceDays,
		"zone":         rep.Zone.String(),
		"da":           rep.Da,
		"probabilities": map[string]float64{
			"A":  rep.Probabilities[vibepm.ZoneA],
			"BC": rep.Probabilities[vibepm.ZoneBC],
			"D":  rep.Probabilities[vibepm.ZoneD],
		},
	})
}

// ensureModels lazily learns the lifetime models once.
func (a *Analysis) ensureModels() error {
	a.learnOnce.Do(func() {
		if _, err := a.eng.Models(); err == nil {
			return
		}
		if a.ageOf == nil {
			a.learnErr = vibepm.ErrNoRULModel
			return
		}
		_, a.learnErr = a.eng.LearnLifetimeModels(a.ageOf)
	})
	return a.learnErr
}

func (a *Analysis) handleRUL(w http.ResponseWriter, r *http.Request) {
	id, err := pumpID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pump id")
		return
	}
	if err := a.ensureModels(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	rul, modelIdx, err := a.eng.PredictRUL(id, a.ageOf)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pump_id": id, "rul_days": rul, "model": modelIdx + 1,
	})
}

// handleFleet serves the whole-fleet report. The serialized response is
// cached and keyed on the store-wide generation counter plus model
// readiness, so a dashboard polling the fleet view costs one map
// lookup (or a 304) between ingests. Rebuilds are single-flight:
// concurrent pollers after an append trigger one FleetReport, not N.
func (a *Analysis) handleFleet(w http.ResponseWriter, r *http.Request) {
	ready := a.ensureModels() == nil
	var age vibepm.AgeFunc
	if ready {
		age = a.ageOf
	}
	gen := a.eng.Measurements().GenerationTotal()
	// With tiering, compaction and retention drops move the partition
	// list's generation; the fleet response keys on it with the same
	// discipline as the hot generation so a dashboard never revalidates
	// against a stale cold view.
	var coldGen uint64
	if c := a.eng.Cold(); c != nil {
		coldGen = c.Generation()
	}
	tag := respTag{gen: gen, coldGen: coldGen, ready: ready}
	code := http.StatusServiceUnavailable
	ent, _, err := a.fleet.Get(struct{}{}, tag, func() (*cachedResp, respTag, error) {
		reports, err := a.eng.FleetReport(age)
		if err != nil {
			return nil, tag, err
		}
		body, err := json.Marshal(map[string]any{"fleet": reports})
		if err != nil {
			code = http.StatusInternalServerError
			return nil, tag, fmt.Errorf("encode fleet: %w", err)
		}
		return &cachedResp{etag: fmt.Sprintf("\"fleet-%d-%d-%t\"", gen, coldGen, ready), body: body}, tag, nil
	})
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}
	serveCached(w, r, ent)
}
