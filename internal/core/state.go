package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"raal/internal/nn"
)

// Training-state files (and the train-state section of checkpoints) open
// with their own magic header so a model file fed to LoadTrainState — or
// vice versa — fails with a clear error, not a gob parse failure.
const (
	// TrainStateMagic opens a serialized TrainState.
	TrainStateMagic = "RAALopt"
	// TrainStateVersion is the current train-state format version.
	TrainStateVersion byte = 1
)

// TrainState captures everything Fit needs beyond the weights to continue
// a training run exactly where it stopped: the Adam moments and step
// counter, plus how many epochs have been consumed from the seeded shuffle
// stream. With it, Fit(2k epochs) and Fit(k) → Save → Load → Fit(k) are
// bit-identical for a fixed sample sequence — the warm-start invariant the
// online learning loop's incremental retraining rests on (pinned by
// TestFitResumeBitEqual).
type TrainState struct {
	// Epochs is how many epochs this state has trained through under the
	// run's Seed. Fit fast-forwards the shuffle RNG by this many epochs
	// before training, so the continuation consumes the exact permutations
	// the uninterrupted run would have.
	Epochs int
	// Opt is the Adam step counter and per-parameter moment vectors.
	Opt nn.AdamState
}

// NewTrainState returns an empty state: resuming from it is identical to
// a cold start, and Fit fills it in as it trains.
func NewTrainState() *TrainState {
	return &TrainState{Opt: nn.AdamState{M: map[string][]float64{}, V: map[string][]float64{}}}
}

// Clone deep-copies the state so a challenger can continue training
// without perturbing the champion's resumable snapshot.
func (st *TrainState) Clone() *TrainState {
	c := &TrainState{Epochs: st.Epochs, Opt: nn.AdamState{
		T: st.Opt.T,
		M: make(map[string][]float64, len(st.Opt.M)),
		V: make(map[string][]float64, len(st.Opt.V)),
	}}
	for k, v := range st.Opt.M {
		c.Opt.M[k] = append([]float64(nil), v...)
	}
	for k, v := range st.Opt.V {
		c.Opt.V[k] = append([]float64(nil), v...)
	}
	return c
}

// Save writes the state (magic header + gob payload) to w.
func (st *TrainState) Save(w io.Writer) error {
	if err := WriteHeader(w, TrainStateMagic, TrainStateVersion); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("core: encoding train state: %w", err)
	}
	return nil
}

// LoadTrainState reads a state previously written by Save. Truncated,
// corrupt, foreign, and version-mismatched inputs are rejected with
// descriptive errors.
func LoadTrainState(r io.Reader) (*TrainState, error) {
	if err := ReadHeader(r, TrainStateMagic, TrainStateVersion, "train state"); err != nil {
		return nil, err
	}
	st := &TrainState{}
	if err := gob.NewDecoder(r).Decode(st); err != nil {
		return nil, fmt.Errorf("core: decoding train state (truncated or corrupt file): %w", err)
	}
	if st.Epochs < 0 || st.Opt.T < 0 {
		return nil, fmt.Errorf("core: corrupt train state: negative epoch (%d) or step (%d) counter", st.Epochs, st.Opt.T)
	}
	if st.Opt.M == nil {
		st.Opt.M = map[string][]float64{}
	}
	if st.Opt.V == nil {
		st.Opt.V = map[string][]float64{}
	}
	return st, nil
}

// Clone returns a model of the same variant and configuration with a
// deep copy of the weights: training the clone never perturbs the
// original, which is what lets a challenger continue from the serving
// champion while the champion keeps answering traffic. Telemetry is not
// carried over.
func (m *Model) Clone() *Model {
	c := NewModel(m.Var, m.Cfg)
	src, dst := m.Params(), c.Params()
	for i := range src {
		copy(dst[i].Value().Data, src[i].Value().Data)
	}
	return c
}
