package store

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"sync"

	"vibepm/internal/physics"
)

// LabelSource records how a human label was obtained (paper §III-B):
// data-driven reading of the sensor traces, or physical inspection
// after replacement.
type LabelSource int

const (
	// DataDriven labels come from experts reading the acceleration
	// traces.
	DataDriven LabelSource = iota
	// PhysicalCheck labels come from inspecting the unit after
	// replacement; each equipment has at most one.
	PhysicalCheck
)

// String names the source.
func (s LabelSource) String() string {
	if s == PhysicalCheck {
		return "physical-check"
	}
	return "data-driven"
}

// Label is one expert annotation (s_mn, q_mn): the zone of a pump at a
// measurement time.
type Label struct {
	PumpID      int                `json:"pump_id"`
	ServiceDays float64            `json:"service_days"`
	Zone        physics.MergedZone `json:"zone"`
	Source      LabelSource        `json:"source"`
	// Valid is false for labels the experts flagged as mistakes; the
	// paper simply discards these together with their measurements.
	Valid bool `json:"valid"`
}

// Labels is the concurrency-safe label store.
type Labels struct {
	mu     sync.RWMutex
	labels []Label
}

// NewLabels returns an empty label store.
func NewLabels() *Labels { return &Labels{} }

// ErrUnknownZone is returned when adding a label without a usable zone.
var ErrUnknownZone = errors.New("store: label zone is unknown")

// Add appends a label. Invalid (human-mistake) labels may be added and
// are retained for audit but excluded from Valid queries.
func (l *Labels) Add(lab Label) error {
	if lab.Zone == physics.MergedUnknown {
		return ErrUnknownZone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.labels = append(l.labels, lab)
	return nil
}

// Len returns the number of stored labels, including invalid ones.
func (l *Labels) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.labels)
}

// Valid returns all valid labels, sorted by (pump, service time).
func (l *Labels) Valid() []Label {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Label, 0, len(l.labels))
	for _, lab := range l.labels {
		if lab.Valid {
			out = append(out, lab)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PumpID != out[j].PumpID {
			return out[i].PumpID < out[j].PumpID
		}
		return out[i].ServiceDays < out[j].ServiceDays
	})
	return out
}

// Save writes all labels (valid and invalid) as JSON.
func (l *Labels) Save(w io.Writer) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	enc := json.NewEncoder(w)
	return enc.Encode(l.labels)
}

// Load replaces the store contents with labels read from w's JSON.
func (l *Labels) Load(r io.Reader) error {
	var labels []Label
	if err := json.NewDecoder(r).Decode(&labels); err != nil {
		return err
	}
	l.mu.Lock()
	l.labels = labels
	l.mu.Unlock()
	return nil
}

// SaveFile writes the labels to path atomically (WriteFileAtomic).
func (l *Labels) SaveFile(path string) error {
	return WriteFileAtomic(path, l.Save)
}

// LoadFile reads labels from path.
func (l *Labels) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return l.Load(f)
}
