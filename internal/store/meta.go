package store

import (
	"errors"
	"sync"
)

// AnalysisPeriod is the (Ts, Te) pair of the paper's §III-B: the time
// interval, in sensor service days, that scopes every retrieval and
// analysis run.
type AnalysisPeriod struct {
	StartDays float64 `json:"start_days"`
	EndDays   float64 `json:"end_days"`
}

// Duration returns the period length in days.
func (p AnalysisPeriod) Duration() float64 { return p.EndDays - p.StartDays }

// Contains reports whether t (service days) lies inside the period.
func (p AnalysisPeriod) Contains(t float64) bool {
	return t >= p.StartDays && t <= p.EndDays
}

// PeriodManager maintains the system's current analysis period and
// advances it on refresh, implementing the paper's periodic update
// ("Ts_j = Ts_{j-1} and Te_j + 1 hour ... forces the analytical engine
// to update the results in every hour"): the start stays anchored and
// the end extends by the refresh interval.
type PeriodManager struct {
	mu       sync.Mutex
	current  AnalysisPeriod
	stepDays float64
	// pinned periods survive refresh (explicitly specified by the
	// administrator).
	pinned bool
}

// ErrBadPeriod is returned for inverted or negative-length periods.
var ErrBadPeriod = errors.New("store: analysis period end before start")

// NewPeriodManager starts with the given period and refresh step (in
// days; e.g. 1.0/24 for hourly refresh).
func NewPeriodManager(initial AnalysisPeriod, stepDays float64) (*PeriodManager, error) {
	if initial.EndDays < initial.StartDays {
		return nil, ErrBadPeriod
	}
	if stepDays <= 0 {
		stepDays = 1.0 / 24
	}
	return &PeriodManager{current: initial, stepDays: stepDays}, nil
}

// Current returns the active analysis period.
func (m *PeriodManager) Current() AnalysisPeriod {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// Refresh extends the period end by one step (unless pinned) and
// returns the new period.
func (m *PeriodManager) Refresh() AnalysisPeriod {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.pinned {
		m.current.EndDays += m.stepDays
	}
	return m.current
}

// Pin explicitly sets the period and stops automatic refresh, as when
// the system administrator overrides the schedule.
func (m *PeriodManager) Pin(p AnalysisPeriod) error {
	if p.EndDays < p.StartDays {
		return ErrBadPeriod
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.current = p
	m.pinned = true
	return nil
}
