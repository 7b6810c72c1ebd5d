package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file is the incremental-maintenance side of the compile/run split: a
// State binds a compiled strategy to one mutable histogram and keeps the
// strategy's data-side artifacts (the subtree-sum vector x_G for tree
// strategies, the exact answer vector W·x for range strategies) patched
// under single-cell deltas instead of rebuilding them per release.
//
// Correctness never depends on the fast path: Recompute rebuilds every
// maintained artifact densely with exactly the float operations of the
// static Answer path, so a recomputed State answers bitwise identically to
// Prepared.Answer on the same histogram, and Apply falls back to it
// whenever the summed patch cost would exceed a dense rebuild.

// maintained is a strategy's incrementally patchable data-side state.
// update folds one cell delta in, updateCost prices that patch in touched
// entries (so State can fall back to recompute), recompute rebuilds
// densely from the histogram (bitwise identical to the static compile
// path), and answer runs the noise-and-reconstruct hot path off the
// maintained artifacts. answer must not mutate the maintained state:
// State serializes update/recompute against answer but allows concurrent
// answers.
//
// exportState flattens the maintained artifacts into one float slice and
// importState overwrites them with a previously exported one; together with
// State.Export/Prepared.Restore they give the durability layer bitwise
// round-trips — the restored artifacts carry the exact values the patch
// path accumulated, incremental float drift included, which a recompute
// from the histogram alone would not reproduce.
type maintained interface {
	update(cell int, delta float64)
	updateCost(cell int) int
	recompute(x []float64)
	answer(eps float64, src *noise.Source) ([]float64, error)
	exportState() []float64
	importState(artifacts []float64) error
}

// State is a compiled strategy bound to one mutable histogram, created by
// Prepared.Refresh. It is not internally synchronized: callers must
// serialize Apply/Recompute against Answer (the public Stream API holds a
// RWMutex — concurrent Answers are safe with each other).
type State struct {
	name       string
	k          int
	x          []float64
	m          maintained
	denseCost  int
	recomputes int64
	patches    int64
}

func newState(name string, x []float64, m maintained, denseCost int) *State {
	st := &State{name: name, k: len(x), x: append([]float64(nil), x...), m: m, denseCost: denseCost}
	st.m.recompute(st.x)
	return st
}

// K returns the domain size.
func (s *State) K() int { return s.k }

// Database returns a copy of the maintained histogram.
func (s *State) Database() []float64 { return append([]float64(nil), s.x...) }

// Recomputes returns how many dense rebuilds have run (including fallbacks).
func (s *State) Recomputes() int64 { return s.recomputes }

// Patches returns how many single-cell incremental patches have run.
func (s *State) Patches() int64 { return s.patches }

// Apply folds a batch of single-cell deltas into the histogram and the
// maintained strategy state. Cells are validated before anything mutates,
// so a failed Apply leaves the State unchanged. When the summed incremental
// patch cost would exceed a dense rebuild, the whole batch is applied to
// the histogram and the state recomputed instead — the bitwise anchor path.
func (s *State) Apply(cells []int, deltas []float64) error {
	if len(cells) != len(deltas) {
		return fmt.Errorf("strategy: %s: %d cells with %d deltas", s.name, len(cells), len(deltas))
	}
	cost := 0
	for _, c := range cells {
		if c < 0 || c >= s.k {
			return fmt.Errorf("strategy: %s: cell %d outside domain [0, %d)", s.name, c, s.k)
		}
		cost += s.m.updateCost(c)
	}
	if cost >= s.denseCost {
		for i, c := range cells {
			s.x[c] += deltas[i]
		}
		s.m.recompute(s.x)
		s.recomputes++
		return nil
	}
	for i, c := range cells {
		s.x[c] += deltas[i]
		s.m.update(c, deltas[i])
	}
	s.patches += int64(len(cells))
	return nil
}

// Recompute forces the dense rebuild of every maintained artifact from the
// current histogram. Afterwards Answer is bitwise identical to
// Prepared.Answer over the same histogram and Source state.
func (s *State) Recompute() {
	s.m.recompute(s.x)
	s.recomputes++
}

// Answer releases the compiled workload off the maintained state at budget
// eps — the same noise-and-reconstruct hot path as Prepared.Answer minus
// the per-release x_G / W·x rebuild.
func (s *State) Answer(eps float64, src *noise.Source) ([]float64, error) {
	return s.m.answer(eps, src)
}

// StateSnapshot is the serializable image of a State: the histogram plus
// the flattened maintained artifacts, both carrying the exact float values
// at export time.
type StateSnapshot struct {
	X         []float64 `json:"x"`
	Artifacts []float64 `json:"artifacts"`
}

// Export snapshots the State for serialization.
func (s *State) Export() StateSnapshot {
	return StateSnapshot{X: append([]float64(nil), s.x...), Artifacts: s.m.exportState()}
}

// Refresh builds the incremental per-stream State for histogram x, or an
// error when the strategy was compiled without an incremental form.
func (p *Prepared) Refresh(x []float64) (*State, error) {
	if p.refresh == nil {
		return nil, fmt.Errorf("strategy: %s has no incremental state", p.Name)
	}
	return p.refresh(x)
}

// Restore rebuilds a State from a snapshot taken by Export on a State of
// the same compiled strategy. Refresh recomputes the artifacts from the
// histogram first (validating shape), then the exported artifacts overwrite
// them so the restored State answers bitwise identically to the exported
// one — including any incremental-patch drift the recompute would erase. A
// shape mismatch in the artifacts is a corruption signal and fails without
// partial state.
func (p *Prepared) Restore(snap StateSnapshot) (*State, error) {
	st, err := p.Refresh(snap.X)
	if err != nil {
		return nil, err
	}
	if err := st.m.importState(snap.Artifacts); err != nil {
		return nil, fmt.Errorf("strategy: %s: restore: %w", p.Name, err)
	}
	return st, nil
}

// treeState maintains the Theorem 4.3 artifacts: the transformed vector
// x_G (patched along the dirty root-to-leaf path, O(depth) per cell) and
// the running total n behind the Lemma 4.10 alias correction.
type treeState struct {
	tr          *core.Transform
	stretch     int
	est         Estimator
	aliasCoeffs []float64
	recon       sparse.Operator
	queries     int
	xg          []float64
	n           float64
}

func (t *treeState) update(cell int, delta float64) {
	t.tr.UpdateTransform(t.xg, cell, delta)
	t.n += delta
}

func (t *treeState) updateCost(cell int) int { return t.tr.PathDepth(cell) }

func (t *treeState) recompute(x []float64) {
	t.tr.TransformInto(t.xg, x)
	t.n = sum(x)
}

// exportState flattens the Theorem 4.3 artifacts as [n, x_G...].
func (t *treeState) exportState() []float64 {
	out := make([]float64, 1+len(t.xg))
	out[0] = t.n
	copy(out[1:], t.xg)
	return out
}

func (t *treeState) importState(artifacts []float64) error {
	if len(artifacts) != 1+len(t.xg) {
		return fmt.Errorf("tree artifacts have %d entries, want %d", len(artifacts), 1+len(t.xg))
	}
	t.n = artifacts[0]
	copy(t.xg, artifacts[1:])
	return nil
}

func (t *treeState) answer(eps float64, src *noise.Source) ([]float64, error) {
	effEps := eps
	if eps > 0 {
		effEps = core.EffectiveEpsilon(eps, t.stretch)
	}
	// Estimators receive a private copy: data-dependent ones (DAWA) may hold
	// references, and concurrent answers must not share a mutable buffer.
	xg := append([]float64(nil), t.xg...)
	xge := t.est(xg, effEps, src)
	out := make([]float64, t.queries)
	if t.aliasCoeffs != nil {
		for i, c := range t.aliasCoeffs {
			out[i] = c * t.n
		}
	}
	t.recon.AddApply(out, xge)
	return out, nil
}

// answerState maintains the exact-truth side of the range strategies (the
// 2-D/k-D grids, the θ-grid, and the θ-line with 1-D ranges as 1-D boxes):
// y = W·x, one exact answer per compiled query. Every release is y plus the
// strategy's signed oracle noise, so y is all the data-side state a stream
// needs. A cell delta adds to every query box containing the cell — O(q·d),
// independent of k and of where the cell lies. recompute is the static truth
// operator verbatim, so a recomputed stream answers bitwise like the static
// path, sharded or not; noise is the per-release oracle pass, shared with
// the static answer closure so the two paths cannot drift.
type answerState struct {
	truth sparse.Operator
	dims  []int   // row-major grid the boxes live on; {k} for 1-D ranges
	lo    [][]int // per dimension, per query: inclusive box bounds
	hi    [][]int
	coord []int     // update scratch: the unranked cell
	miss  []int     // update scratch: per query, then the hit indices
	y     []float64 // exact answers
	noise func(out []float64, eps float64, src *noise.Source)
}

func (a *answerState) update(cell int, delta float64) {
	policy.Unrank(a.dims, cell, a.coord)
	// A box misses the cell iff some c-lo or hi-c is negative, so OR-ing
	// them per query leaves the sign bit set exactly on misses. The scan is
	// branch-free, one dimension at a time: random boxes defeat branch
	// prediction, and this costs the same wherever the cell lies.
	miss := a.miss
	for t, c := range a.coord {
		lo, hi := a.lo[t][:len(miss)], a.hi[t][:len(miss)]
		if t == 0 {
			for i := range miss {
				miss[i] = (c - lo[i]) | (hi[i] - c)
			}
			continue
		}
		for i := range miss {
			miss[i] |= (c - lo[i]) | (hi[i] - c)
		}
	}
	// Compact the hit indices in place (n never passes i), then add.
	n := 0
	for i, m := range miss {
		miss[n] = i
		n += int(uint(^m) >> 63)
	}
	for _, i := range miss[:n] {
		a.y[i] += delta
	}
}

func (a *answerState) updateCost(int) int { return len(a.y) }

func (a *answerState) recompute(x []float64) { a.truth.Apply(a.y, x) }

func (a *answerState) exportState() []float64 { return append([]float64(nil), a.y...) }

func (a *answerState) importState(artifacts []float64) error {
	if len(artifacts) != len(a.y) {
		return fmt.Errorf("answer artifacts have %d entries, want %d", len(artifacts), len(a.y))
	}
	copy(a.y, artifacts)
	return nil
}

func (a *answerState) answer(eps float64, src *noise.Source) ([]float64, error) {
	out := append([]float64(nil), a.y...)
	a.noise(out, eps, src)
	return out, nil
}

// answerRefresh builds the Refresh hook shared by every answer-vector
// strategy. truth is the compiled workload operator the static path applies;
// lo and hi hold the same queries as inclusive boxes over dims, laid out as
// in answerState. Boxes are tested against the strategy's own dims, never
// through workload.Query.Coeff: a RangeKd built without Dims has no grid to
// unrank against.
func answerRefresh(name string, w *workload.Workload, dims []int, lo, hi [][]int, truth sparse.Operator,
	noiseInto func(out []float64, eps float64, src *noise.Source)) func(x []float64) (*State, error) {
	return func(x []float64) (*State, error) {
		if err := checkDomain(w, x); err != nil {
			return nil, err
		}
		a := &answerState{truth: truth, dims: dims, lo: lo, hi: hi, coord: make([]int, len(dims)),
			miss: make([]int, w.Len()), y: make([]float64, w.Len()), noise: noiseInto}
		return newState(name, x, a, w.K), nil
	}
}

// rectBoxes lays rectangle queries over a d-dimensional grid out as
// answerState bounds.
func rectBoxes(d int, rects []workload.RangeKd) (lo, hi [][]int) {
	lo, hi = make([][]int, d), make([][]int, d)
	for t := 0; t < d; t++ {
		lo[t], hi[t] = make([]int, len(rects)), make([]int, len(rects))
		for i, rq := range rects {
			lo[t][i], hi[t][i] = rq.Lo[t], rq.Hi[t]
		}
	}
	return lo, hi
}
