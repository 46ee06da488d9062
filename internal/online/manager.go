package online

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"raal/internal/core"
	"raal/internal/encode"
)

// Version is one immutable model generation. Once constructed it is
// never mutated — promotion swaps which Version the champion pointer
// addresses, so a request that loaded a Version keeps a fully coherent
// (model, state, number) triple for its whole lifetime regardless of
// concurrent promotions.
type Version struct {
	// Num is the generation number, 1 for the bootstrap champion.
	Num int
	// Model is this generation's trained network.
	Model *core.Model
	// State is the resumable training state the generation was left
	// with — the warm-start point for the next challenger.
	State *core.TrainState
}

// Config tunes the online learning loop. The zero value gets sensible
// defaults from NewManager.
type Config struct {
	// ReplayCap bounds the replay reservoir (default 512 samples).
	ReplayCap int
	// Seed drives every stochastic choice in the loop (reservoir
	// eviction; retrain seed when Train.Seed is unset). Default 1.
	Seed int64

	// DriftWindow is the sliding window of served q-errors watched by
	// the drift detector (default 64); DriftQuantile the watched quantile
	// (default 0.9); DriftThreshold the quantile value that dispatches a
	// retrain (default 2.0 — the tail predicts at least 2× off).
	DriftWindow    int
	DriftQuantile  float64
	DriftThreshold float64

	// MinRetrain is the minimum replay occupancy before a drift trigger
	// may retrain (default 64): retraining on a near-empty buffer would
	// anchor the challenger to noise.
	MinRetrain int
	// ShadowMin is how many feedback outcomes a challenger is shadow-
	// scored on before the promote/reject verdict (default 32).
	ShadowMin int
	// Cooldown is how many feedback observations must pass after a
	// retrain dispatch or shadow verdict before the next retrain may
	// trigger (default DriftWindow) — back-to-back retrains on the same
	// evidence are wasted work.
	Cooldown int

	// Train configures the challenger's warm-start Fit over the replay
	// snapshot. Zero fields default to Epochs 10, Batch 16, LR 1e-3,
	// Seed from Config.Seed.
	Train core.TrainConfig

	// Registry, if non-nil, persists every generation as an integrity-
	// checked snapshot and records promotions in the manifest. If its
	// manifest already names a loadable champion, NewManager resumes
	// from that snapshot instead of the bootstrap model.
	Registry *Registry

	// Metrics, if non-nil, receives the raal_online_* metric set.
	Metrics *Metrics
	// Logger, if non-nil, narrates drift triggers, verdicts, and
	// promotions.
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.ReplayCap <= 0 {
		c.ReplayCap = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 64
	}
	if c.DriftQuantile == 0 {
		c.DriftQuantile = 0.9
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 2.0
	}
	if c.MinRetrain <= 0 {
		c.MinRetrain = 64
	}
	if c.ShadowMin <= 0 {
		c.ShadowMin = 32
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.DriftWindow
	}
	if c.Train.Epochs <= 0 {
		c.Train.Epochs = 10
	}
	if c.Train.Batch <= 0 {
		c.Train.Batch = 16
	}
	if c.Train.LR == 0 {
		c.Train.LR = 1e-3
	}
	if c.Train.Seed == 0 {
		c.Train.Seed = c.Seed
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{} // nil fields: every observation is a no-op
	}
}

// shadow is a live challenger being scored against the champion on the
// feedback stream.
type shadow struct {
	version *Version
	// champSum and chalSum accumulate q-errors over the same feedback
	// outcomes; scored counts them.
	champSum, chalSum float64
	scored            int
}

// Manager runs the online learning loop around a serving champion:
// ingests feedback, detects drift, retrains a challenger from the replay
// buffer (warm-started from the champion's training state), shadow-scores
// it on live traffic, and atomically promotes it when it wins.
//
// Champion() is wait-free (one atomic load) and safe from any goroutine —
// it is the serving hot path. Everything else serializes on an internal
// mutex; Observe runs the retrain synchronously when drift triggers, so
// call it from a feedback worker, never from a request path.
type Manager struct {
	cfg      Config
	champion atomic.Pointer[Version]

	mu       sync.Mutex
	buf      *Reservoir
	drift    *DriftDetector
	shadow   *shadow
	cooldown int
	pinned   bool
	versions map[int]*Version
	history  []int // champion lineage, most recent last
	nextNum  int
	lastErr  string // most recent retrain/persist failure, for /models
}

// NewManager wires the loop around a bootstrap champion. If cfg.Registry
// has a manifest naming a loadable champion, that snapshot is resumed
// instead (so a restarted server serves the exact model it was serving);
// otherwise the bootstrap model is persisted as generation 1.
func NewManager(bootstrap *core.Model, st *core.TrainState, cfg Config) (*Manager, error) {
	if bootstrap == nil {
		return nil, fmt.Errorf("online: nil bootstrap model")
	}
	cfg.defaults()
	if st == nil {
		st = core.NewTrainState()
	}
	m := &Manager{
		cfg:      cfg,
		buf:      NewReservoir(cfg.ReplayCap, cfg.Seed),
		drift:    NewDriftDetector(cfg.DriftWindow, cfg.DriftQuantile, cfg.DriftThreshold),
		versions: map[int]*Version{},
		nextNum:  1,
	}
	champ := &Version{Num: 1, Model: bootstrap, State: st}
	if reg := cfg.Registry; reg != nil {
		man, err := reg.ReadManifest()
		if err != nil {
			return nil, err
		}
		if man.Champion > 0 {
			if champ, err = load(reg, man.Champion, bootstrap); err != nil {
				return nil, fmt.Errorf("online: manifest names champion v%d but it cannot be loaded: %w", man.Champion, err)
			}
		} else {
			if err := reg.Save(1, champ.Model, champ.State); err != nil {
				return nil, err
			}
			if err := reg.WriteManifest(Manifest{Champion: 1}); err != nil {
				return nil, err
			}
		}
		// Numbering continues past everything on disk, not just the
		// champion — older generations stay loadable by Promote.
		if vs, err := reg.List(); err == nil && len(vs) > 0 && vs[len(vs)-1] > m.nextNum {
			m.nextNum = vs[len(vs)-1]
		}
	}
	if champ.Num > m.nextNum {
		m.nextNum = champ.Num
	}
	m.nextNum++
	m.versions[champ.Num] = champ
	m.history = []int{champ.Num}
	m.champion.Store(champ)
	cfg.Metrics.ChampionVersion.Set(float64(champ.Num))
	return m, nil
}

// load reads generation num from reg, refusing one that cannot serve in
// place of ref (the bootstrap, or a champion descended from it): another
// variant, or another feature layout, which the encoder the server was
// started with could not feed without a panic.
func load(reg *Registry, num int, ref *core.Model) (*Version, error) {
	model, st, err := reg.Load(num)
	if err != nil {
		return nil, err
	}
	if model.Var != ref.Var {
		return nil, fmt.Errorf("online: snapshot v%d is a %s network, the server's a %s", num, model.Var.Name, ref.Var.Name)
	}
	if err := model.Cfg.CheckInputs(ref.Cfg); err != nil {
		return nil, err
	}
	return &Version{Num: num, Model: model, State: st}, nil
}

// Champion returns the serving generation. One atomic load; the caller
// must use the returned Version (not re-call Champion) for everything a
// single request touches, which is what makes a concurrent promotion
// invisible mid-request.
func (m *Manager) Champion() *Version { return m.champion.Load() }

// Observe ingests one served outcome: the sample that was priced, the
// prediction that was served for it, and the cost that was then actually
// observed. It feeds the replay buffer, advances the drift detector,
// shadow-scores any live challenger on the same outcome, and — when
// drift has tripped and the loop is eligible — synchronously retrains a
// challenger from the replay snapshot.
func (m *Manager) Observe(s *encode.Sample, predicted, actual float64) {
	labeled := *s
	labeled.CostSec = actual
	// The copy outlives the request in the replay buffer and is scored by
	// challengers: without its own memo slot none of them can evict the
	// prefix the champion keeps on the shared plan encoding.
	labeled.Memo = nil

	m.mu.Lock()
	defer m.mu.Unlock()

	m.buf.Add(&labeled)
	q := QError(predicted, actual)
	m.drift.Observe(q)
	met := m.cfg.Metrics
	met.Feedback.Inc()
	met.QError.Observe(q)
	met.ReplaySize.Set(float64(m.buf.Len()))
	if dq := m.drift.Quantile(); dq == dq { // skip NaN (cold window)
		met.DriftQuantile.Set(dq)
	}
	if m.cooldown > 0 {
		m.cooldown--
	}

	if sh := m.shadow; sh != nil {
		chal, _ := sh.version.Model.PredictCtx(context.Background(), []*encode.Sample{&labeled}, core.PredictOpts{}) // Background never cancels
		sh.champSum += q
		sh.chalSum += QError(chal[0], actual)
		sh.scored++
		met.ShadowScored.Inc()
		if sh.scored >= m.cfg.ShadowMin {
			m.settleShadow()
		}
		return
	}

	if m.pinned || m.cooldown > 0 || m.buf.Len() < m.cfg.MinRetrain || !m.drift.Drifted() {
		return
	}
	met.DriftTriggers.Inc()
	m.retrainLocked()
}

// retrainLocked clones the champion, warm-starts Fit on the replay
// snapshot, and installs the result as the shadow challenger. Called
// with mu held; the retrain is synchronous and deterministic for a fixed
// feedback sequence.
func (m *Manager) retrainLocked() {
	champ := m.champion.Load()
	model := champ.Model.Clone()
	state := champ.State.Clone()
	tc := m.cfg.Train
	tc.State = state
	snap := m.buf.Snapshot()
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("online: drift triggered retrain",
			"champion", champ.Num, "replay", len(snap), "quantile", m.drift.Quantile())
	}
	if _, err := model.Fit(snap, tc); err != nil {
		m.lastErr = fmt.Sprintf("retrain: %v", err)
		m.cooldown = m.cfg.Cooldown
		return
	}
	m.cfg.Metrics.Retrains.Inc()
	v := &Version{Num: m.nextNum, Model: model, State: state}
	m.nextNum++
	m.versions[v.Num] = v
	if reg := m.cfg.Registry; reg != nil {
		if err := reg.Save(v.Num, v.Model, v.State); err != nil {
			m.lastErr = fmt.Sprintf("persist v%d: %v", v.Num, err)
		}
	}
	m.shadow = &shadow{version: v}
	m.cooldown = m.cfg.Cooldown
}

// settleShadow renders the promote/reject verdict. Called with mu held.
func (m *Manager) settleShadow() {
	sh := m.shadow
	m.shadow = nil
	m.cooldown = m.cfg.Cooldown
	champMean := sh.champSum / float64(sh.scored)
	chalMean := sh.chalSum / float64(sh.scored)
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("online: shadow verdict",
			"challenger", sh.version.Num, "scored", sh.scored,
			"champion_qerr", champMean, "challenger_qerr", chalMean)
	}
	if m.pinned || chalMean >= champMean {
		m.cfg.Metrics.ShadowRejects.Inc()
		return
	}
	m.promoteLocked(sh.version, "shadow")
	// The swap invalidates the drift window: its errors were the old
	// champion's. Measure the new regime from scratch.
	m.drift.Reset()
}

// promoteLocked installs v as champion. Called with mu held.
func (m *Manager) promoteLocked(v *Version, reason string) {
	m.champion.Store(v)
	m.history = append(m.history, v.Num)
	m.cfg.Metrics.Promotions.With(reason).Inc()
	m.cfg.Metrics.ChampionVersion.Set(float64(v.Num))
	if reg := m.cfg.Registry; reg != nil {
		if err := reg.WriteManifest(Manifest{Champion: v.Num}); err != nil {
			m.lastErr = fmt.Sprintf("manifest: %v", err)
		}
	}
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("online: promoted", "version", v.Num, "reason", reason)
	}
}

// Promote makes generation num the champion by operator fiat. Versions
// no longer held in memory are loaded (and integrity-checked) from the
// registry. Promoting the version already serving is a no-op.
func (m *Manager) Promote(num int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.champion.Load().Num == num {
		return nil
	}
	v, ok := m.versions[num]
	if !ok {
		reg := m.cfg.Registry
		if reg == nil {
			return fmt.Errorf("online: unknown version %d", num)
		}
		var err error
		if v, err = load(reg, num, m.champion.Load().Model); err != nil {
			return err
		}
		m.versions[num] = v
	}
	if sh := m.shadow; sh != nil && sh.version.Num == num {
		m.shadow = nil // the operator pre-empted the shadow verdict
	}
	m.promoteLocked(v, "manual")
	m.drift.Reset()
	return nil
}

// Rollback re-promotes the previous champion in the lineage.
func (m *Manager) Rollback() error {
	m.mu.Lock()
	if len(m.history) < 2 {
		m.mu.Unlock()
		return fmt.Errorf("online: no earlier champion to roll back to")
	}
	prev := m.history[len(m.history)-2]
	v, ok := m.versions[prev]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("online: previous champion v%d is no longer available", prev)
	}
	m.promoteLocked(v, "rollback")
	m.drift.Reset()
	m.mu.Unlock()
	return nil
}

// Pin freezes (or unfreezes) the current champion: while pinned, drift
// never retrains and a shadow verdict never auto-promotes. Manual
// Promote/Rollback remain available — pinning guards against the
// automation, not the operator.
func (m *Manager) Pin(pinned bool) {
	m.mu.Lock()
	m.pinned = pinned
	m.mu.Unlock()
}

// ShadowStatus describes a live challenger mid-scoring.
type ShadowStatus struct {
	Version    int     `json:"version"`
	Scored     int     `json:"scored"`
	Needed     int     `json:"needed"`
	ChampionQ  float64 `json:"champion_qerr"`
	ChallengeQ float64 `json:"challenger_qerr"`
}

// VersionStatus describes one known generation.
type VersionStatus struct {
	Num      int  `json:"num"`
	Champion bool `json:"champion"`
	InMemory bool `json:"in_memory"`
	OnDisk   bool `json:"on_disk"`
}

// Status is the admin view of the loop.
type Status struct {
	Champion      int             `json:"champion"`
	Pinned        bool            `json:"pinned"`
	DriftQuantile float64         `json:"drift_quantile"` // -1 until the window fills
	Drifted       bool            `json:"drifted"`
	ReplayLen     int             `json:"replay_len"`
	ReplaySeen    int64           `json:"replay_seen"`
	Cooldown      int             `json:"cooldown"`
	Shadow        *ShadowStatus   `json:"shadow,omitempty"`
	History       []int           `json:"history"`
	Versions      []VersionStatus `json:"versions"`
	LastError     string          `json:"last_error,omitempty"`
}

// Status reports the loop's current state for the /models endpoint.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	champ := m.champion.Load()
	st := Status{
		Champion:      champ.Num,
		Pinned:        m.pinned,
		DriftQuantile: -1,
		Drifted:       m.drift.Drifted(),
		ReplayLen:     m.buf.Len(),
		ReplaySeen:    m.buf.Seen(),
		Cooldown:      m.cooldown,
		History:       append([]int(nil), m.history...),
		LastError:     m.lastErr,
	}
	if dq := m.drift.Quantile(); dq == dq {
		st.DriftQuantile = dq
	}
	if sh := m.shadow; sh != nil {
		ss := &ShadowStatus{Version: sh.version.Num, Scored: sh.scored, Needed: m.cfg.ShadowMin}
		if sh.scored > 0 {
			ss.ChampionQ = sh.champSum / float64(sh.scored)
			ss.ChallengeQ = sh.chalSum / float64(sh.scored)
		}
		st.Shadow = ss
	}
	onDisk := map[int]bool{}
	if reg := m.cfg.Registry; reg != nil {
		if vs, err := reg.List(); err == nil {
			for _, v := range vs {
				onDisk[v] = true
			}
		}
	}
	nums := map[int]bool{}
	for n := range m.versions {
		nums[n] = true
	}
	for n := range onDisk {
		nums[n] = true
	}
	for n := range nums {
		st.Versions = append(st.Versions, VersionStatus{
			Num:      n,
			Champion: n == champ.Num,
			InMemory: m.versions[n] != nil,
			OnDisk:   onDisk[n],
		})
	}
	sort.Slice(st.Versions, func(i, j int) bool { return st.Versions[i].Num < st.Versions[j].Num })
	return st
}
