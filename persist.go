package blowfish

import (
	"fmt"
	"sort"

	"github.com/privacylab/blowfish/internal/strategy"
)

// This file is the serializable-state surface the durability layer
// (internal/persist via internal/serve) builds on: exact exports and
// restores of the privacy ledgers and of streaming state. Everything here
// round-trips through JSON bitwise — Go's float64 encoding is
// shortest-exact — because the recovery invariants are stated bitwise: a
// restarted daemon must never re-grant spent budget and never re-noise a
// released dyadic node, and slack of even one ulp compounds across
// snapshot/restore cycles.

// AccountantState is the full serializable ledger of an Accountant.
type AccountantState struct {
	Budget   Budget `json:"budget"`
	Spent    Budget `json:"spent"`
	Releases int64  `json:"releases"`
}

// ExportState snapshots the ledger.
func (a *Accountant) ExportState() AccountantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AccountantState{Budget: a.budget, Spent: a.spent, Releases: a.releases}
}

// RestoreState overwrites the ledger with a previously exported state.
// Restoring is an overwrite, not a merge, so replaying write-ahead records
// that carry absolute post-charge states is idempotent: applying the same
// record twice (a crash between WAL append and acknowledgment) cannot
// double-spend or double-grant.
func (a *Accountant) RestoreState(st AccountantState) error {
	if err := st.Budget.validate(); err != nil {
		return err
	}
	if !(st.Spent.Epsilon >= 0) || !(st.Spent.Delta >= 0) || st.Releases < 0 {
		return fmt.Errorf("blowfish: restored ledger has negative or NaN spend (ε=%g, δ=%g, releases=%d): %w",
			st.Spent.Epsilon, st.Spent.Delta, st.Releases, ErrInvalidOptions)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.budget = st.Budget
	a.spent = st.Spent
	a.releases = st.Releases
	return nil
}

// ChargeLogged is Charge with a durability hook: it prices the charge,
// hands the tentative post-charge ledger state to commit (which appends it
// to a write-ahead log and syncs), and only makes the spend observable if
// commit returns nil. The ledger mutex is held across commit, so there is
// no window where a grant is visible without its durable record — the
// ordering that keeps budget from ever being double-granted across a crash.
// A nil commit degrades to plain Charge.
func (a *Accountant) ChargeLogged(per Budget, releases int, commit func(AccountantState) error) error {
	if releases < 0 {
		return fmt.Errorf("blowfish: negative release count %d: %w", releases, ErrInvalidOptions)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	next, err := a.admitLocked(per.Epsilon, per.Delta, releases)
	if err != nil {
		return err
	}
	if commit != nil {
		if err := commit(next); err != nil {
			return err
		}
	}
	a.spent = next.Spent
	a.releases = next.Releases
	return nil
}

// ClosedNodeState is one released dyadic tree node: level, closing epoch,
// and the noised workload answers it was released with. Persisting the
// noised answers — never the raw aggregate — is what lets recovery
// reassemble window answers without drawing fresh noise for an
// already-charged node.
type ClosedNodeState struct {
	Level   int       `json:"level"`
	End     int       `json:"end"`
	Answers []float64 `json:"answers"`
}

// ContinualStreamState is the serializable continual-release side of a
// Stream: the ledger counters, the open per-level accumulators, the
// current epoch's pending deltas, and every closed node still reachable by
// a future window.
type ContinualStreamState struct {
	Config     BudgetContinual   `json:"config"`
	DeltaNode  float64           `json:"delta_node"`
	Epochs     int               `json:"epochs"`
	Nodes      int64             `json:"nodes"`
	MaxLevels  int               `json:"max_levels"`
	EpochDelta []float64         `json:"epoch_delta"`
	LevelAcc   [][]float64       `json:"level_acc"`
	Closed     []ClosedNodeState `json:"closed"`
}

// StreamState is the full serializable image of a Stream: the histogram,
// the compiled strategy's maintained artifacts (exact, incremental-patch
// drift included), and the continual-release state when the stream is in
// that mode. It does not identify the Plan — the serving layer stores the
// (policy, workload, options) key alongside and re-prepares the plan before
// calling Engine.RestoreStream.
type StreamState struct {
	Database  []float64             `json:"database"`
	Artifacts []float64             `json:"artifacts"`
	Continual *ContinualStreamState `json:"continual,omitempty"`
}

// ExportState snapshots the stream for serialization. Closed nodes are
// emitted sorted by (level, end) so identical states serialize to
// identical bytes.
func (s *Stream) ExportState() *StreamState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.st.Export()
	out := &StreamState{Database: snap.X, Artifacts: snap.Artifacts}
	if c := s.cont; c != nil {
		// Apply/Release hold the stream write lock for every accountant
		// mutation, so under the read lock these reads are stable.
		a := c.acct
		a.mu.Lock()
		cs := &ContinualStreamState{
			Config:     a.cfg,
			DeltaNode:  a.deltaNode,
			Epochs:     a.epochs,
			Nodes:      a.nodes,
			MaxLevels:  a.maxLevels,
			EpochDelta: append([]float64(nil), c.epochDelta...),
			LevelAcc:   make([][]float64, len(c.levelAcc)),
			Closed:     make([]ClosedNodeState, 0, len(c.nodes)),
		}
		a.mu.Unlock()
		for l, acc := range c.levelAcc {
			cs.LevelAcc[l] = append([]float64(nil), acc...)
		}
		for k, ans := range c.nodes {
			cs.Closed = append(cs.Closed, ClosedNodeState{Level: k.level, End: k.end, Answers: append([]float64(nil), ans...)})
		}
		sort.Slice(cs.Closed, func(i, j int) bool {
			if cs.Closed[i].Level != cs.Closed[j].Level {
				return cs.Closed[i].Level < cs.Closed[j].Level
			}
			return cs.Closed[i].End < cs.Closed[j].End
		})
		out.Continual = cs
	}
	return out
}

// RestoreStream rebuilds a Stream from a state exported by ExportState,
// bound to pl — a Plan this engine prepared from the same (policy,
// workload, options) the exporting stream used. The maintained strategy
// artifacts are restored exactly, so answers continue bitwise from where
// the exported stream stood; in continual mode the ledger counters and the
// already-noised closed nodes are restored as-is, so recovery never
// re-noises a node or resets the epoch horizon. Shape mismatches are
// corruption signals and fail without partial state. Range plans' artifacts
// are their exact answers; a state from a version that exported a
// summed-area table there must not be passed in (README has the upgrade
// recipe).
func (e *Engine) RestoreStream(pl *Plan, st *StreamState) (*Stream, error) {
	if pl == nil || pl.eng != e {
		return nil, fmt.Errorf("blowfish: plan was not prepared by this engine: %w", ErrInvalidOptions)
	}
	if st == nil {
		return nil, fmt.Errorf("blowfish: nil stream state: %w", ErrInvalidOptions)
	}
	if len(st.Database) != pl.k {
		return nil, fmt.Errorf("blowfish: restored database size %d != policy domain %d: %w", len(st.Database), pl.k, ErrDomainMismatch)
	}
	state, err := pl.prep.Restore(strategy.StateSnapshot{X: st.Database, Artifacts: st.Artifacts})
	if err != nil {
		return nil, fmt.Errorf("blowfish: %v: %w", err, ErrInvalidOptions)
	}
	s := &Stream{pl: pl, st: state}
	if cs := st.Continual; cs != nil {
		switch pl.opts.Estimator {
		case EstimatorLaplace, EstimatorGaussian, EstimatorGeometric:
		default:
			return nil, fmt.Errorf("blowfish: continual release needs a linear estimator (Laplace, Gaussian or Geometric), got estimator %d: %w",
				pl.opts.Estimator, ErrInvalidOptions)
		}
		acct, err := NewContinualAccountant(cs.Config)
		if err != nil {
			return nil, err
		}
		if cs.Epochs < 0 || cs.Epochs > cs.Config.Epochs || cs.MaxLevels < 0 || cs.MaxLevels > acct.lv || cs.Nodes < 0 {
			return nil, fmt.Errorf("blowfish: restored continual ledger (epochs=%d, maxLevels=%d, nodes=%d) outside budget horizon (epochs=%d, levels=%d): %w",
				cs.Epochs, cs.MaxLevels, cs.Nodes, cs.Config.Epochs, acct.lv, ErrInvalidOptions)
		}
		if !(cs.DeltaNode >= 0) {
			return nil, fmt.Errorf("blowfish: restored per-node δ=%g is negative or NaN: %w", cs.DeltaNode, ErrInvalidOptions)
		}
		if cs.DeltaNode > 0 {
			acct.deltaNode = cs.DeltaNode
		}
		acct.epochs = cs.Epochs
		acct.nodes = cs.Nodes
		acct.maxLevels = cs.MaxLevels
		if len(cs.EpochDelta) != pl.k {
			return nil, fmt.Errorf("blowfish: restored epoch delta has %d cells, domain %d: %w", len(cs.EpochDelta), pl.k, ErrDomainMismatch)
		}
		if len(cs.LevelAcc) != acct.lv {
			return nil, fmt.Errorf("blowfish: restored continual state has %d levels, budget needs %d: %w", len(cs.LevelAcc), acct.lv, ErrInvalidOptions)
		}
		cont := &continualState{
			acct:       acct,
			epochDelta: append([]float64(nil), cs.EpochDelta...),
			levelAcc:   make([][]float64, acct.lv),
			nodes:      make(map[nodeKey][]float64, len(cs.Closed)),
		}
		for l, acc := range cs.LevelAcc {
			if len(acc) != pl.k {
				return nil, fmt.Errorf("blowfish: restored level-%d accumulator has %d cells, domain %d: %w", l, len(acc), pl.k, ErrDomainMismatch)
			}
			cont.levelAcc[l] = append([]float64(nil), acc...)
		}
		for _, n := range cs.Closed {
			if n.Level < 0 || n.Level >= acct.lv || n.End < 1 || n.End > cs.Config.Epochs {
				return nil, fmt.Errorf("blowfish: restored closed node (level=%d, end=%d) outside the dyadic tree: %w", n.Level, n.End, ErrInvalidOptions)
			}
			if len(n.Answers) != pl.queries {
				return nil, fmt.Errorf("blowfish: restored node answers have %d entries, workload has %d: %w", len(n.Answers), pl.queries, ErrInvalidOptions)
			}
			cont.nodes[nodeKey{level: n.Level, end: n.End}] = append([]float64(nil), n.Answers...)
		}
		s.cont = cont
	}
	return s, nil
}
