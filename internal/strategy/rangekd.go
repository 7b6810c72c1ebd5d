package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements Theorem 5.4 for arbitrary dimension d: range queries
// under the grid policy G¹_{k^d}. The policy edges along dimension i between
// slices j and j+1 form one "sheet" per (i, j) — a (d−1)-dimensional grid of
// edges indexed by the remaining coordinates. Sheets are pairwise disjoint,
// so each gets the full ε (parallel composition). A transformed range query
// is supported on its 2d boundary faces (Lemma 5.1), each a
// (d−1)-dimensional rectangle inside a single sheet, answered by that
// sheet's tensor Privelet oracle — yielding the paper's
// O(d·log^{3(d−1)}k/ε²) error. The 2-D case in range2d.go is the same
// construction with 1-D oracles; it is kept separate because its line
// oracles support the oracle-kind ablations.

// gridKdStrategy holds one (d−1)-dim oracle per sheet.
type gridKdStrategy struct {
	dims []int
	// sheets[i][j] covers edges along dimension i between slices j and j+1;
	// its domain is dims with dimension i removed.
	sheets [][]*mech.PriveletKd
}

func newGridKdStrategy(dims []int, eps float64, src *noise.Source) *gridKdStrategy {
	d := len(dims)
	s := &gridKdStrategy{dims: dims, sheets: make([][]*mech.PriveletKd, d)}
	for i := 0; i < d; i++ {
		rest := restDims(dims, i)
		s.sheets[i] = make([]*mech.PriveletKd, dims[i]-1)
		for j := range s.sheets[i] {
			s.sheets[i][j] = mech.NewPriveletKd(rest, eps, src)
		}
	}
	return s
}

// restDims returns dims with dimension drop removed; a 0-dimensional result
// (d = 1) becomes the singleton {1} so the oracle still has one cell.
func restDims(dims []int, drop int) []int {
	rest := make([]int, 0, len(dims)-1)
	for i, v := range dims {
		if i != drop {
			rest = append(rest, v)
		}
	}
	if len(rest) == 0 {
		rest = []int{1}
	}
	return rest
}

// queryNoise assembles the signed boundary-face noise for [lo, hi].
func (s *gridKdStrategy) queryNoise(lo, hi []int) float64 {
	d := len(s.dims)
	faceLo := make([]int, 0, d)
	faceHi := make([]int, 0, d)
	var n float64
	for i := 0; i < d; i++ {
		faceLo = faceLo[:0]
		faceHi = faceHi[:0]
		for t := 0; t < d; t++ {
			if t == i {
				continue
			}
			faceLo = append(faceLo, lo[t])
			faceHi = append(faceHi, hi[t])
		}
		if len(faceLo) == 0 { // 1-D domain: faces are single cells
			faceLo = append(faceLo, 0)
			faceHi = append(faceHi, 0)
		}
		if lo[i] > 0 { // upper face: inside endpoint has the larger index
			n -= s.sheets[i][lo[i]-1].RectNoise(faceLo, faceHi)
		}
		if hi[i] < s.dims[i]-1 { // lower face: inside endpoint is smaller
			n += s.sheets[i][hi[i]].RectNoise(faceLo, faceHi)
		}
	}
	return n
}

// queryVariance returns the analytic variance of queryNoise (faces live in
// distinct sheets, so variances add).
func (s *gridKdStrategy) queryVariance(lo, hi []int) float64 {
	d := len(s.dims)
	faceLo := make([]int, 0, d)
	faceHi := make([]int, 0, d)
	var v float64
	for i := 0; i < d; i++ {
		faceLo = faceLo[:0]
		faceHi = faceHi[:0]
		for t := 0; t < d; t++ {
			if t == i {
				continue
			}
			faceLo = append(faceLo, lo[t])
			faceHi = append(faceHi, hi[t])
		}
		if len(faceLo) == 0 {
			faceLo = append(faceLo, 0)
			faceHi = append(faceHi, 0)
		}
		if lo[i] > 0 {
			v += s.sheets[i][lo[i]-1].RectVariance(faceLo, faceHi)
		}
		if hi[i] < s.dims[i]-1 {
			v += s.sheets[i][hi[i]].RectVariance(faceLo, faceHi)
		}
	}
	return v
}

// GridPolicyRangeKd returns the Theorem 5.4 algorithm for d-dimensional
// range queries under G¹_{k^d}, for any d ≥ 1.
func GridPolicyRangeKd(dims []int, cfg Config) Algorithm {
	name := fmt.Sprintf("Transformed + Privelet (d=%d)", len(dims))
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		return CompileGridRangeKd(name, dims, w, cfg)
	}}
}

// CompileGridRangeKd compiles the general-dimension Theorem 5.4 strategy
// for one workload; the hot path draws the per-sheet oracles, builds the
// summed-area table and reads the 2d boundary faces per query. Past the cfg
// sharding threshold the truth side shards into dim-0 slabs (see shard.go).
func CompileGridRangeKd(name string, dims []int, w *workload.Workload, cfg Config) (*Prepared, error) {
	k := 1
	for _, v := range dims {
		if v < 2 {
			return nil, fmt.Errorf("strategy: GridPolicyRangeKd needs every dimension >= 2, got %v", dims)
		}
		k *= v
	}
	if k != w.K {
		return nil, fmt.Errorf("strategy: grid %v != workload domain %d", dims, w.K)
	}
	rects := make([]workload.RangeKd, w.Len())
	for i, q := range w.Queries {
		rq, ok := q.(workload.RangeKd)
		if !ok || len(rq.Lo) != len(dims) {
			return nil, fmt.Errorf("strategy: GridPolicyRangeKd wants %d-D RangeKd queries, got %T", len(dims), q)
		}
		rects[i] = rq
	}
	compilations.Add(1)
	truth, err := gridTruth(dims, rects, cfg)
	if err != nil {
		return nil, err
	}
	// noiseInto is the per-release oracle pass shared by the static answer
	// and the streaming state (see range2d.go).
	noiseInto := func(out []float64, eps float64, src *noise.Source) {
		s := newGridKdStrategy(dims, eps, src)
		for i, rq := range rects {
			out[i] += s.queryNoise(rq.Lo, rq.Hi)
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

// GridPolicyRangeKdVariance returns the analytic per-query error of the
// Theorem 5.4 strategy for one query, for tests and error prediction. It
// constructs the oracles with zero noise (variance is data independent).
func GridPolicyRangeKdVariance(dims []int, eps float64, q workload.RangeKd, src *noise.Source) float64 {
	s := newGridKdStrategy(dims, eps, src)
	return s.queryVariance(q.Lo, q.Hi)
}

// Marginal workloads under grid policies are sums of full-extent range
// queries, so GridPolicyRangeKd answers them directly once they are
// expressed as RangeKd queries — see workload.Marginals.
