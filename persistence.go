package vibepm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"vibepm/internal/core"
	"vibepm/internal/feature"
	"vibepm/internal/store"
)

// ModelState is the serializable form of a fitted engine: the Zone A
// baseline, the classifier parameters, the decision boundary, and (when
// learned) the lifetime models. It lets a trained pipeline be shipped
// to the plant floor without the training corpus.
type ModelState struct {
	Version int `json:"version"`
	// Options records the saving engine's options; LoadModel does not
	// adopt them (the baseline carries what scoring needs).
	Options    Options              `json:"options"`
	Baseline   *feature.Baseline    `json:"baseline"`
	Classifier core.ClassifierState `json:"classifier"`
	Boundary   float64              `json:"boundary"`
	Models     *LifetimeModels      `json:"models,omitempty"`
}

// modelStateVersion is bumped on breaking format changes.
const modelStateVersion = 1

// ErrModelVersion is returned when loading a state with an unsupported
// version.
var ErrModelVersion = errors.New("vibepm: unsupported model state version")

// SaveModel writes the fitted pipeline as JSON. The engine must be
// fitted; lifetime models ride along when they have been learned.
func (e *Engine) SaveModel(w io.Writer) error {
	if !e.Fitted() {
		return ErrNotFitted
	}
	state := ModelState{
		Version:    modelStateVersion,
		Options:    e.opts,
		Baseline:   e.live.Baseline(),
		Classifier: e.classifier.State(),
		Boundary:   e.boundary,
		Models:     e.models,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(state)
}

// LoadModel restores a fitted pipeline previously written by SaveModel.
// The stores are untouched; only the trained state is replaced. The
// engine keeps the Options it was built with: its live state folds with
// them and a later Fit trains with them, while the loaded baseline
// carries the extraction options it scores with. The model's own
// Options field is not read.
func (e *Engine) LoadModel(r io.Reader) error {
	var state ModelState
	if err := json.NewDecoder(r).Decode(&state); err != nil {
		return fmt.Errorf("vibepm: decode model: %w", err)
	}
	if state.Version != modelStateVersion {
		return fmt.Errorf("%w: %d", ErrModelVersion, state.Version)
	}
	b := state.Baseline
	if b == nil || len(b.Harmonic.Peaks) == 0 {
		return errors.New("vibepm: model state has no baseline")
	}
	// The Mahalanobis score divides by PSDVar bin for bin
	// (dsp.MahalanobisDiag): one positive finite variance per PSDMean bin.
	if len(b.PSDVar) != len(b.PSDMean) {
		return fmt.Errorf("vibepm: model baseline PSDVar has %d bins, PSDMean %d", len(b.PSDVar), len(b.PSDMean))
	}
	for i, v := range b.PSDVar {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("vibepm: model baseline PSDVar[%d] = %v, want a positive finite variance", i, v)
		}
	}
	classifier, err := core.NewGaussianFromState(state.Classifier)
	if err != nil {
		return fmt.Errorf("vibepm: restore classifier: %w", err)
	}
	e.classifier = classifier
	e.densities = nil
	e.boundary = state.Boundary
	e.models = state.Models
	// As Fit does: folds score D_a against the installed baseline.
	e.live.SetBaseline(b)
	return nil
}

// SaveModelFile writes the fitted pipeline to path atomically
// (store.WriteFileAtomic): a save that fails, or a crash part-way,
// leaves the model that was there.
func (e *Engine) SaveModelFile(path string) error {
	return store.WriteFileAtomic(path, e.SaveModel)
}

// LoadModelFile restores a fitted pipeline from path.
func (e *Engine) LoadModelFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.LoadModel(f)
}
