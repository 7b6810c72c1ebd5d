// Package mech implements the differentially private mechanisms the paper
// builds on and compares against: the Laplace mechanism (Thm 2.1), the matrix
// mechanism framework of Li et al. (Eq. 2), the hierarchical mechanism of Hay
// et al., the Privelet wavelet mechanism of Xiao et al. (1-D and
// multi-dimensional), a DAWA-style data-dependent mechanism (Li, Hay,
// Miklau), isotonic-regression consistency post-processing (§5.4.2) and the
// exponential mechanism (used by the Theorem 4.4 negative result).
//
// # Noise oracles
//
// Blowfish strategies (Section 5) release noisy interval answers over the
// *edge domain* of the policy graph and reconstruct each workload query from
// a handful of intervals. The same interval appears in many reconstructions,
// so the noise must be consistent: an Oracle samples its internal noise once
// and IntervalNoise(l, r) deterministically combines it, exactly as the
// corresponding matrix mechanism would. Privacy calibration is internal to
// each oracle: an oracle built with budget ε guarantees that releasing its
// entire noisy strategy is ε-differentially private with respect to a ±1
// change of any single position of its domain.
package mech

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/noise"
)

// Oracle provides consistent noise for interval queries over positions
// 0..M()−1 of a one-dimensional domain.
type Oracle interface {
	// M returns the domain size.
	M() int
	// IntervalNoise returns the noise of the mechanism's estimate for the
	// inclusive interval [l, r]. Calling it twice with the same bounds gives
	// the same value.
	IntervalNoise(l, r int) float64
	// IntervalVariance returns the exact variance of IntervalNoise(l, r)
	// over the oracle's own randomness, used for analytic error prediction
	// and tests.
	IntervalVariance(l, r int) float64
}

// OracleKind selects an oracle implementation.
type OracleKind int

// The oracle implementations.
const (
	// CellKind adds independent Laplace noise per position (the identity
	// strategy): interval variance grows linearly with length, best for
	// point queries and very short intervals.
	CellKind OracleKind = iota
	// HierKind uses the binary-tree mechanism of Hay et al.: every node of a
	// complete binary tree over the domain is measured with Laplace noise
	// scaled to the tree height; intervals decompose into O(log m) nodes.
	HierKind
	// PriveletKind uses the Haar wavelet mechanism of Xiao et al. with
	// per-level weights, giving O(log³ m/ε²) interval variance.
	PriveletKind
)

// NewOracle builds an oracle of the given kind over domain size m with
// privacy budget eps.
func NewOracle(kind OracleKind, m int, eps float64, src *noise.Source) Oracle {
	switch kind {
	case CellKind:
		return NewCellOracle(m, eps, src)
	case HierKind:
		return NewHierOracle(m, eps, src)
	case PriveletKind:
		return NewPriveletOracle(m, eps, src)
	default:
		panic(fmt.Sprintf("mech: unknown oracle kind %d", kind))
	}
}

// CellOracle adds Lap(1/ε) noise to every position; interval noise is the
// sum over the interval, served in O(1) from a prefix-sum table.
type CellOracle struct {
	m      int
	scale  float64
	prefix []float64 // prefix[i] = sum of cell noise over positions < i
}

// NewCellOracle returns a CellOracle over m positions with budget eps.
// A single position change of magnitude 1 changes the released vector by 1
// in one coordinate, so per-cell Lap(1/ε) noise is ε-DP.
func NewCellOracle(m int, eps float64, src *noise.Source) *CellOracle {
	o := &CellOracle{m: m, prefix: make([]float64, m+1)}
	if eps > 0 {
		o.scale = 1 / eps
	}
	var acc float64
	for i := 0; i < m; i++ {
		acc += src.Laplace(o.scale)
		o.prefix[i+1] = acc
	}
	return o
}

// M implements Oracle.
func (o *CellOracle) M() int { return o.m }

// IntervalNoise implements Oracle.
func (o *CellOracle) IntervalNoise(l, r int) float64 {
	checkInterval(o.m, l, r)
	return o.prefix[r+1] - o.prefix[l]
}

// IntervalVariance implements Oracle: 2·scale² per cell in the interval.
func (o *CellOracle) IntervalVariance(l, r int) float64 {
	checkInterval(o.m, l, r)
	return float64(r-l+1) * 2 * o.scale * o.scale
}

// HierOracle is the binary-tree mechanism: the domain is padded to a power
// of two and every tree node holds Laplace noise with scale h/ε where h is
// the number of levels, since one position lies on exactly one node per
// level. Interval noise sums the canonical node decomposition.
type HierOracle struct {
	m      int
	size   int // padded power-of-two domain
	levels int
	scale  float64
	nodes  []float64 // heap layout: node i has children 2i+1, 2i+2
}

// NewHierOracle returns a HierOracle over m positions with budget eps.
func NewHierOracle(m int, eps float64, src *noise.Source) *HierOracle {
	size, h := paddedSize(m)
	levels := h + 1
	o := &HierOracle{m: m, size: size, levels: levels, nodes: make([]float64, 2*size-1)}
	if eps > 0 {
		o.scale = float64(levels) / eps
	}
	for i := range o.nodes {
		o.nodes[i] = src.Laplace(o.scale)
	}
	return o
}

// M implements Oracle.
func (o *HierOracle) M() int { return o.m }

// Levels returns the tree height (the per-position sensitivity the noise is
// calibrated to).
func (o *HierOracle) Levels() int { return o.levels }

// IntervalNoise implements Oracle.
func (o *HierOracle) IntervalNoise(l, r int) float64 {
	checkInterval(o.m, l, r)
	return o.walk(0, 0, o.size-1, l, r)
}

func (o *HierOracle) walk(node, a, b, l, r int) float64 {
	if l <= a && b <= r {
		return o.nodes[node]
	}
	if b < l || r < a {
		return 0
	}
	mid := (a + b) / 2
	return o.walk(2*node+1, a, mid, l, r) + o.walk(2*node+2, mid+1, b, l, r)
}

// IntervalVariance implements Oracle: 2·scale² per canonical node used.
func (o *HierOracle) IntervalVariance(l, r int) float64 {
	checkInterval(o.m, l, r)
	return float64(o.countNodes(0, o.size-1, l, r)) * 2 * o.scale * o.scale
}

func (o *HierOracle) countNodes(a, b, l, r int) int {
	if l <= a && b <= r {
		return 1
	}
	if b < l || r < a {
		return 0
	}
	mid := (a + b) / 2
	return o.countNodes(a, mid, l, r) + o.countNodes(mid+1, b, l, r)
}

// paddedSize returns the power-of-two size the tree oracles pad an
// m-position domain to, and its height h = log2(size).
func paddedSize(m int) (size, h int) {
	size = 1
	for size < m {
		size *= 2
		h++
	}
	return size, h
}

func checkInterval(m, l, r int) {
	if l < 0 || r >= m || l > r {
		panic(fmt.Sprintf("mech: interval [%d,%d] out of domain [0,%d)", l, r, m))
	}
}
