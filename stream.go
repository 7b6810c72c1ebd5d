package blowfish

import (
	"context"
	"fmt"
	"sync"

	"github.com/privacylab/blowfish/internal/strategy"
)

// Delta is a batch of single-cell updates to a streamed database: cell
// Cells[i] changes by Values[i]. Cells may repeat.
type Delta struct {
	Cells  []int
	Values []float64
}

// StreamOptions configures OpenStream. The zero value opens a plain
// incremental stream: Apply patches the plan's maintained state and Answer
// releases against the caller's accountant exactly like Plan.Answer.
// Setting Continual switches the stream to continual-release mode: answers
// come only from Release (the binary-tree counting mechanism over epoch
// deltas) and compose under the BudgetContinual ledger instead of the
// sequential Accountant.
type StreamOptions struct {
	Continual *BudgetContinual
}

// Stream binds a compiled Plan to one mutable database. Apply folds deltas
// into the strategy's maintained state incrementally — O(path depth) per
// cell for subtree-sum strategies, O(queries) per cell for range strategies,
// which maintain the workload's exact answers — with a dense-recompute
// fallback whenever patching would cost more than a rebuild, so answers
// never depend on the fast path for correctness. A Stream is safe for
// concurrent use: Apply/Release take the write lock, Answer the read lock,
// so every answer reflects a consistent prefix of the applied deltas.
type Stream struct {
	mu   sync.RWMutex
	pl   *Plan
	st   *strategy.State
	cont *continualState
}

// continualState is the binary-tree counting mechanism layered on a stream:
// one open accumulator per dyadic level, closed (and noised, at the
// per-node budget) whenever the epoch count aligns, plus the released node
// answers still reachable by a future window.
type continualState struct {
	acct       *ContinualAccountant
	epochDelta []float64             // deltas applied since the last Release
	levelAcc   [][]float64           // open node histogram per level
	nodes      map[nodeKey][]float64 // noised answers of closed nodes
}

// nodeKey identifies a closed tree node: level l, closing at epoch end,
// covering epochs (end−2^l, end].
type nodeKey struct{ level, end int }

// EpochRelease is one continual release: the noised workload answers over
// the epochs [WindowStart, Epoch], assembled as a sum of Nodes noised tree
// nodes (post-processing — no budget beyond the per-node charges).
type EpochRelease struct {
	Epoch       int
	WindowStart int
	Answers     []float64
	Nodes       int
}

// OpenStream binds pl (a Plan this engine prepared) to the initial
// database x and returns the Stream maintaining it. In continual mode the
// plan must use a linear estimator (Laplace, Gaussian or Geometric): the
// mechanism sums node answers over delta histograms, which data-dependent
// estimators (DAWA, consistency projections) do not commute with. A
// Gaussian plan's per-release δ must fit the per-node share Delta/L of the
// continual budget.
func (e *Engine) OpenStream(pl *Plan, x []float64, opts StreamOptions) (*Stream, error) {
	if pl == nil || pl.eng != e {
		return nil, fmt.Errorf("blowfish: plan was not prepared by this engine: %w", ErrInvalidOptions)
	}
	if len(x) != pl.k {
		return nil, fmt.Errorf("blowfish: database size %d != policy domain %d: %w", len(x), pl.k, ErrDomainMismatch)
	}
	st, err := pl.prep.Refresh(x)
	if err != nil {
		return nil, err
	}
	s := &Stream{pl: pl, st: st}
	if opts.Continual != nil {
		acct, err := NewContinualAccountant(*opts.Continual)
		if err != nil {
			return nil, err
		}
		switch pl.opts.Estimator {
		case EstimatorLaplace, EstimatorGaussian, EstimatorGeometric:
		default:
			return nil, fmt.Errorf("blowfish: continual release needs a linear estimator (Laplace, Gaussian or Geometric), got estimator %d: %w",
				pl.opts.Estimator, ErrInvalidOptions)
		}
		if pl.delta > 0 {
			if share := acct.cfg.Delta / float64(acct.lv); pl.delta > share*(1+budgetSlack) {
				return nil, fmt.Errorf("blowfish: plan δ=%g exceeds the per-node share δ=%g of the continual budget (δ=%g over %d levels): %w",
					pl.delta, share, acct.cfg.Delta, acct.lv, ErrInvalidOptions)
			}
			acct.deltaNode = pl.delta
		}
		s.cont = &continualState{
			acct:       acct,
			epochDelta: make([]float64, pl.k),
			levelAcc:   make([][]float64, acct.lv),
			nodes:      map[nodeKey][]float64{},
		}
		for l := range s.cont.levelAcc {
			s.cont.levelAcc[l] = make([]float64, pl.k)
		}
	}
	return s, nil
}

// Plan returns the compiled plan the stream answers with.
func (s *Stream) Plan() *Plan { return s.pl }

// Ledger returns the continual-release accountant, or nil for a plain
// stream.
func (s *Stream) Ledger() *ContinualAccountant {
	if s.cont == nil {
		return nil
	}
	return s.cont.acct
}

// Database returns a copy of the current streamed histogram.
func (s *Stream) Database() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.Database()
}

// StreamStats counts how the maintained state has been refreshed.
type StreamStats struct {
	// Patches counts single-cell incremental updates applied.
	Patches int64
	// Recomputes counts dense rebuilds (cost-based fallbacks and explicit
	// Recompute calls).
	Recomputes int64
}

// Stats returns the stream's refresh counters.
func (s *Stream) Stats() StreamStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StreamStats{Patches: s.st.Patches(), Recomputes: s.st.Recomputes()}
}

// Apply folds a delta batch into the maintained state. Cells are validated
// before anything mutates, so a failed Apply leaves the stream unchanged.
// In continual mode the batch also accrues to the current epoch, released
// by the next Release call.
func (s *Stream) Apply(d Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.st.Apply(d.Cells, d.Values); err != nil {
		return err
	}
	if s.cont != nil {
		for i, c := range d.Cells {
			s.cont.epochDelta[c] += d.Values[i]
		}
	}
	return nil
}

// Recompute forces the dense rebuild of the maintained state, after which
// answers are bitwise identical to Plan.Answer over the same histogram and
// Source state — the property-tested anchor the incremental path is
// compared against.
func (s *Stream) Recompute() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Recompute()
}

// Answer releases the plan's workload over the stream's current database,
// charging the Engine's default Accountant — Plan.Answer minus the
// per-release strategy-state rebuild. It is rejected in continual mode,
// where only Release's budget composition is sound.
func (s *Stream) Answer(eps float64, src *Source) ([]float64, error) {
	return s.AnswerWith(context.Background(), s.pl.eng.acct, eps, src)
}

// AnswerWith is Answer charging an arbitrary accountant (nil when the
// caller has already accounted, e.g. at serving admission time) and
// honoring ctx before any budget is charged.
func (s *Stream) AnswerWith(ctx context.Context, acct *Accountant, eps float64, src *Source) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("blowfish: nil noise source: %w", ErrInvalidOptions)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cont != nil {
		return nil, fmt.Errorf("blowfish: stream is in continual-release mode; answers come from Release: %w", ErrInvalidOptions)
	}
	if acct != nil {
		if err := acct.charge(eps, s.pl.delta, 1); err != nil {
			return nil, err
		}
	}
	return s.st.Answer(eps, src)
}

// Release closes the current epoch and returns the noised workload answers
// over the trailing configured window. See ReleaseWindow.
func (s *Stream) Release(src *Source) (*EpochRelease, error) {
	return s.ReleaseWindow(0, src)
}

// ReleaseWindow closes the current epoch and answers the workload over the
// trailing `window` epochs (0 means the configured window). The epoch's
// accumulated deltas enter one open node per dyadic level; every node whose
// span aligns with the epoch count is closed and answered once through the
// compiled plan at the per-node budget ε/L — the only noise ever drawn —
// and the window answer is the sum of the closed nodes covering
// [Epoch−window+1, Epoch] (post-processing, no further charge). Releases
// past the planned horizon reject with ErrEpochsExhausted and windows wider
// than configured with ErrWindowExceeded, both before any noise is drawn.
func (s *Stream) ReleaseWindow(window int, src *Source) (*EpochRelease, error) {
	if src == nil {
		return nil, fmt.Errorf("blowfish: nil noise source: %w", ErrInvalidOptions)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cont
	if c == nil {
		return nil, fmt.Errorf("blowfish: stream is not in continual-release mode: %w", ErrInvalidOptions)
	}
	cfg := c.acct.Config()
	if window == 0 {
		window = cfg.Window
	}
	if window < 0 || window > cfg.Window {
		return nil, fmt.Errorf("blowfish: release window %d outside the configured window %d: %w",
			window, cfg.Window, ErrWindowExceeded)
	}
	t, err := c.acct.beginEpoch()
	if err != nil {
		return nil, err
	}
	// Fold the epoch's deltas into every open node.
	for _, acc := range c.levelAcc {
		for i, v := range c.epochDelta {
			if v != 0 {
				acc[i] += v
			}
		}
	}
	for i := range c.epochDelta {
		c.epochDelta[i] = 0
	}
	// Close the aligned nodes: level l closes every 2^l epochs.
	nb := c.acct.NodeBudget()
	closed := 0
	for l := 0; l < c.acct.lv; l++ {
		span := 1 << l
		if span > t || t%span != 0 {
			continue
		}
		ans, err := s.pl.prep.Answer(c.levelAcc[l], nb.Epsilon, src)
		if err != nil {
			return nil, err
		}
		c.nodes[nodeKey{level: l, end: t}] = ans
		for i := range c.levelAcc[l] {
			c.levelAcc[l][i] = 0
		}
		closed++
	}
	c.acct.noteNodes(closed)
	// Canonical dyadic cover of [lo, t]: from the right, always the largest
	// aligned node still inside the window. Every node it names has closed
	// (its end is aligned and ≤ t) and none has been pruned (pruning only
	// drops nodes starting before any reachable window).
	lo := t - window + 1
	if lo < 1 {
		lo = 1
	}
	answers := make([]float64, s.pl.queries)
	used := 0
	for e := t; e >= lo; {
		l := 0
		for l+1 < c.acct.lv {
			span := 1 << (l + 1)
			if e%span == 0 && e-span+1 >= lo {
				l++
				continue
			}
			break
		}
		for i, v := range c.nodes[nodeKey{level: l, end: e}] {
			answers[i] += v
		}
		used++
		e -= 1 << l
	}
	// Prune nodes no future window can reach (window starts only move
	// forward: the earliest next one is t+1−Window+1).
	for k := range c.nodes {
		if k.end-(1<<k.level)+1 < t-cfg.Window+2 {
			delete(c.nodes, k)
		}
	}
	return &EpochRelease{Epoch: t, WindowStart: lo, Answers: answers, Nodes: used}, nil
}
