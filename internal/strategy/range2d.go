package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements the Theorem 5.4 strategy: d-dimensional range queries
// under the grid policy G¹_{k^d} (specialized to d = 2, the case evaluated
// in Section 6). The policy edges split into 2(k−1) disjoint "lines":
// vertical edges between adjacent rows, one line per row gap, and horizontal
// edges between adjacent columns. Per Lemma 5.1 a transformed range query is
// supported on the boundary edges of the rectangle — at most four contiguous
// constant-sign runs, one per side (Figure 5). The strategy publishes a
// noise oracle per line (each line gets the full ε by parallel composition:
// a Blowfish neighbor moves one tuple along a single grid edge, touching one
// line) and reconstructs every query as its true answer plus the signed
// oracle noise of its ≤4 boundary runs. Privacy follows the matrix-mechanism
// coupling of Theorem 4.1: the reconstruction coefficients on edge f are
// exactly (W_G)_{·f}, and a unit change along f shifts the strategy vector
// by f's per-line participation, which each oracle calibrates its noise to.

// gridNoise is the compile-time noise plan of one rectangle workload on a
// rows×cols grid: per line, the mech.Support of the boundary runs the
// workload reads on it, and per query its runs. Lines are indexed in the
// order their oracles draw: the rows−1 vertical lines (line r holds edges
// (r,c)-(r+1,c) at position c), then the cols−1 horizontal lines (line
// rows−1+c holds edges (r,c)-(r,c+1) at position r).
type gridNoise struct {
	lines []*mech.Support
	runs  [][]gridRun
}

// gridRun is one boundary run of a query: positions [lo, hi] of one line,
// with the sign of its reconstruction coefficient.
type gridRun struct {
	line, lo, hi int
	sign         float64
}

// newGridNoise compiles the boundary runs of rects, at most four each.
// Sign convention: edge (u, v) with u the smaller index carries +q[u]−q[v],
// so a run whose *inside* endpoint is v (larger index) has coefficient −1
// and vice versa. A side flush with the grid border has no run, and an
// empty rectangle has none at all.
func newGridNoise(rows, cols int, kind mech.OracleKind, rects []rect) *gridNoise {
	g := &gridNoise{runs: make([][]gridRun, len(rects))}
	ivs := make([][]mech.Interval, rows-1+cols-1)
	add := func(i, line, lo, hi int, sign float64) {
		g.runs[i] = append(g.runs[i], gridRun{line: line, lo: lo, hi: hi, sign: sign})
		ivs[line] = append(ivs[line], mech.Interval{L: lo, R: hi})
	}
	for i, q := range rects {
		if q.empty() {
			continue
		}
		if q.r1 > 0 { // top boundary: vertical line r1−1, inside endpoint below
			add(i, q.r1-1, q.c1, q.c2, -1)
		}
		if q.r2 < rows-1 { // bottom boundary: vertical line r2, inside endpoint above
			add(i, q.r2, q.c1, q.c2, +1)
		}
		if q.c1 > 0 { // left boundary: horizontal line c1−1
			add(i, rows-1+q.c1-1, q.r1, q.r2, -1)
		}
		if q.c2 < cols-1 { // right boundary: horizontal line c2
			add(i, rows-1+q.c2, q.r1, q.r2, +1)
		}
	}
	g.lines = make([]*mech.Support, len(ivs))
	for l := range ivs {
		m := cols
		if l >= rows-1 {
			m = rows
		}
		g.lines[l] = mech.NewSupport(kind, m, ivs[l])
	}
	return g
}

// draw draws one release's line oracles at budget eps. It consumes the
// Source exactly as building every line's full oracle in line order would,
// but transforms only the noise the compiled runs read; lines no run reads
// come back nil.
func (g *gridNoise) draw(eps float64, src *noise.Source) []mech.Oracle {
	lines := make([]mech.Oracle, len(g.lines))
	for l, sup := range g.lines {
		lines[l] = sup.Draw(eps, src)
	}
	return lines
}

// query returns query i's signed boundary-run noise on one release's lines.
func (g *gridNoise) query(lines []mech.Oracle, i int) float64 {
	var n float64
	for _, r := range g.runs[i] {
		n += r.sign * lines[r.line].IntervalNoise(r.lo, r.hi)
	}
	return n
}

// GridPolicyRange2D returns the "Transformed + Privelet" algorithm of the
// 2D-Range experiments: 2-D range queries under G¹_{k²} with the per-line
// oracles of the given kind (PriveletKind reproduces the paper's strategy
// and its O(d·log^{3(d−1)}k/ε²) bound; CellKind and HierKind serve as
// ablations).
func GridPolicyRange2D(dims []int, kind mech.OracleKind, cfg Config) Algorithm {
	name := "Transformed + Privelet"
	switch kind {
	case mech.CellKind:
		name = "Transformed + Laplace"
	case mech.HierKind:
		name = "Transformed + Hierarchical"
	}
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		return CompileGridRange2D(name, dims, kind, w, cfg)
	}}
}

// CompileGridRange2D compiles the Theorem 5.4 strategy (d = 2) for one
// workload: query rectangles are validated and unpacked once, and their
// boundary runs fix the noise support. The hot path draws the per-line
// oracles (the only per-release randomness), transforming only the
// supported noise, builds the summed-area table, and reads off the ≤4
// boundary runs per query. Past the cfg sharding threshold the truth side
// is emitted as a blocked operator over dim-0 slabs (see shard.go); the
// oracle pass is unaffected.
func CompileGridRange2D(name string, dims []int, kind mech.OracleKind, w *workload.Workload, cfg Config) (*Prepared, error) {
	if len(dims) != 2 {
		return nil, fmt.Errorf("strategy: GridPolicyRange2D wants a 2-D grid, got dims %v", dims)
	}
	rows, cols := dims[0], dims[1]
	if rows*cols != w.K {
		return nil, fmt.Errorf("strategy: grid %dx%d != workload domain %d", rows, cols, w.K)
	}
	rects := make([]workload.RangeKd, w.Len())
	boxes := make([]rect, w.Len())
	for i, q := range w.Queries {
		rq, ok := q.(workload.RangeKd)
		if !ok || len(rq.Lo) != 2 || len(rq.Hi) != 2 {
			return nil, fmt.Errorf("strategy: GridPolicyRange2D wants 2-D RangeKd queries, got %T", q)
		}
		box, err := gridRect(rows, cols, rq)
		if err != nil {
			return nil, err
		}
		rects[i], boxes[i] = rq, box
	}
	compilations.Add(1)
	truth, err := gridTruth(dims, rects, cfg)
	if err != nil {
		return nil, err
	}
	gn := newGridNoise(rows, cols, kind, boxes)
	// noiseInto is the per-release oracle pass, shared by the static answer
	// and the streaming state so the two paths cannot drift. The oracles are
	// the only randomness; they draw the same Source values whether the truth
	// side is rebuilt per release or incrementally maintained.
	noiseInto := func(out []float64, eps float64, src *noise.Source) {
		lines := gn.draw(eps, src)
		for i := range out {
			out[i] += gn.query(lines, i)
		}
	}
	answer := func(x []float64, eps float64, src *noise.Source) ([]float64, error) {
		if err := checkDomain(w, x); err != nil {
			return nil, err
		}
		out := make([]float64, len(rects))
		truth.Apply(out, x)
		noiseInto(out, eps, src)
		return out, nil
	}
	lo, hi := rectBoxes(len(dims), rects)
	refresh := answerRefresh(name, w, dims, lo, hi, truth, noiseInto)
	return &Prepared{Name: name, answer: answer, op: truth, refresh: refresh}, nil
}

// gridRect checks a 2-D query rectangle against the rows×cols grid.
func gridRect(rows, cols int, rq workload.RangeKd) (rect, error) {
	q := rect{rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1]}
	if q.r1 < 0 || q.c1 < 0 || q.empty() || q.r2 >= rows || q.c2 >= cols {
		return q, fmt.Errorf("strategy: rectangle %v..%v outside grid %dx%d", rq.Lo, rq.Hi, rows, cols)
	}
	return q, nil
}
