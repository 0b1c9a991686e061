package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"vibepm"
	"vibepm/internal/store"
)

// serviceAge is the age function vibed uses with -data: without
// factory install dates, service time is the age proxy.
func serviceAge(_ int, serviceDays float64) float64 { return serviceDays }

// reference is a from-scratch, in-process, batch-path engine (no live
// state) over the same records the child holds. The child's answers
// for a pump must equal its answers.
type reference struct {
	eng *vibepm.Engine
}

// newReference loads the saved corpus, adds the records the child held
// before it fitted and learned its lifetime models (none for a fresh
// boot, the recovered tail for a restart), then fits and learns.
func newReference(dataDir string, before []*store.Record) (*reference, error) {
	m := store.NewMeasurements()
	if err := m.LoadFile(filepath.Join(dataDir, "measurements.bin")); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	l := store.NewLabels()
	if err := l.LoadFile(filepath.Join(dataDir, "labels.json")); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for _, rec := range before {
		m.AddUnique(rec)
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, m, l)
	eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	if err := eng.Fit(); err != nil {
		return nil, fmt.Errorf("reference: fit: %w", err)
	}
	if _, err := eng.LearnLifetimeModels(serviceAge); err != nil {
		return nil, fmt.Errorf("reference: lifetime models: %w", err)
	}
	return &reference{eng: eng}, nil
}

// add applies writes the child acknowledged after it was serving.
func (r *reference) add(recs []*store.Record) {
	for _, rec := range recs {
		r.eng.Measurements().AddUnique(rec)
	}
}

// pumpAnswer is what the analysis endpoints say about one pump.
type pumpAnswer struct {
	Zone  string
	Da    float64
	RUL   float64
	Model int
	Fault string
}

type faultJSON struct {
	Class string `json:"class"`
}

func (r *reference) answer(pump int) (pumpAnswer, error) {
	var a pumpAnswer
	rep, err := r.eng.Report(pump, nil)
	if err != nil {
		return a, err
	}
	a.Zone, a.Da = rep.Zone.String(), rep.Da
	rul, idx, err := r.eng.PredictRUL(pump, serviceAge)
	if err != nil {
		return a, err
	}
	a.RUL, a.Model = rul, idx+1
	st, err := r.eng.FaultStatus(pump)
	if err != nil {
		return a, err
	}
	// Through JSON, as the child's answer comes: the class name is
	// whatever the wire format says it is.
	b, err := json.Marshal(st)
	if err != nil {
		return a, err
	}
	var f faultJSON
	if err := json.Unmarshal(b, &f); err != nil {
		return a, err
	}
	a.Fault = f.Class
	return a, nil
}

// childAnswer asks the child's zone, RUL and faults endpoints.
func childAnswer(c *conn, pump int) (pumpAnswer, error) {
	var a pumpAnswer
	var zone struct {
		Zone string  `json:"zone"`
		Da   float64 `json:"da"`
	}
	if err := c.getJSON(fmt.Sprintf("/api/v1/analysis/pumps/%d/zone", pump), &zone); err != nil {
		return a, err
	}
	var rul struct {
		RUL   float64 `json:"rul_days"`
		Model int     `json:"model"`
	}
	if err := c.getJSON(fmt.Sprintf("/api/v1/analysis/pumps/%d/rul", pump), &rul); err != nil {
		return a, err
	}
	var f faultJSON
	if err := c.getJSON(fmt.Sprintf("/api/v1/pumps/%d/faults", pump), &f); err != nil {
		return a, err
	}
	return pumpAnswer{Zone: zone.Zone, Da: zone.Da, RUL: rul.RUL, Model: rul.Model, Fault: f.Class}, nil
}

// closeTo reports whether two floats agree to nine digits: the live and
// batch paths are proven equal in this repo, and the wire format
// round-trips float64 exactly, so anything looser would hide a bug.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkedPumps picks the three seeded pumps whose analysis answers are
// compared against the reference.
func checkedPumps(seed int64, pumps int) []int {
	return rand.New(rand.NewSource(seed ^ 0x636865636b)).Perm(pumps)[:3]
}

// checkAnalysis compares the child's zone, D_a, RUL, model and fault
// class for the seeded pumps against the reference.
func checkAnalysis(res *result, c *conn, ref *reference, pumps []int) {
	for _, p := range pumps {
		want, err := ref.answer(p)
		if err != nil {
			res.fail("reference answer for pump %d: %v", p, err)
			continue
		}
		got, err := childAnswer(c, p)
		if err != nil {
			res.fail("child answer for pump %d: %v", p, err)
			continue
		}
		if got.Zone != want.Zone || got.Model != want.Model || got.Fault != want.Fault ||
			!closeTo(got.Da, want.Da) || !closeTo(got.RUL, want.RUL) {
			res.fail("pump %d: child says %+v, from-scratch engine says %+v", p, got, want)
		}
	}
}

// checkStored verifies, per pump, that every acknowledged
// (pump, service_days) is listed by /pumps/{id}/measurements and that
// the trend's total_points is initial + acknowledged.
func checkStored(res *result, c *conn, initial map[int]int, acked map[int][]float64) {
	for pump, n0 := range initial {
		var list struct {
			Measurements []struct {
				ServiceDays float64 `json:"service_days"`
			} `json:"measurements"`
		}
		if err := c.getJSON(fmt.Sprintf("/api/v1/pumps/%d/measurements", pump), &list); err != nil {
			res.fail("list pump %d: %v", pump, err)
			continue
		}
		have := make(map[float64]bool, len(list.Measurements))
		for _, m := range list.Measurements {
			have[m.ServiceDays] = true
		}
		for _, day := range acked[pump] {
			if !have[day] {
				res.fail("pump %d: acknowledged service_days %v is not stored", pump, day)
			}
		}
		var tr trendJSON
		if err := c.getJSON(fmt.Sprintf("/api/v1/pumps/%d/trend?points=%d", pump, trendBudgets[0]), &tr); err != nil {
			res.fail("trend pump %d: %v", pump, err)
			continue
		}
		if want := n0 + len(acked[pump]); tr.TotalPoints != want || len(list.Measurements) != want {
			res.fail("pump %d: total_points %d, %d listed, want initial %d + acknowledged %d",
				pump, tr.TotalPoints, len(list.Measurements), n0, len(acked[pump]))
		}
	}
}
