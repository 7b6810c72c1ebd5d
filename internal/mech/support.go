package mech

import "github.com/privacylab/blowfish/internal/noise"

// Interval is an inclusive range [L, R] of an oracle's positions.
type Interval struct{ L, R int }

// Support is the part of one oracle's noise that a fixed set of intervals
// reads. A strategy that knows its workload at compile time builds one per
// oracle, and each release then draws the oracle through Draw: it consumes
// the same Source values as the full oracle but transforms and stores only
// what the intervals read.
type Support struct {
	kind OracleKind
	m    int
	used bool    // some interval was given
	read []int32 // Privelet: heap indices of the detail nodes read, ascending
	slot []int32 // Privelet: heap index → index into read, −1 when unread
}

// NewSupport returns the support of the intervals ivs on a kind oracle over
// m positions. Every interval must lie in [0, m).
func NewSupport(kind OracleKind, m int, ivs []Interval) *Support {
	s := &Support{kind: kind, m: m, used: len(ivs) > 0}
	if kind != PriveletKind || !s.used {
		return s
	}
	size, _ := paddedSize(m)
	mark := make([]bool, size-1)
	for _, iv := range ivs {
		checkInterval(m, iv.L, iv.R)
		markDetail(mark, 0, 0, size-1, iv.L, iv.R)
	}
	s.read = make([]int32, 0, size-1)
	s.slot = make([]int32, size-1)
	for i, ok := range mark {
		s.slot[i] = -1
		if ok {
			s.slot[i] = int32(len(s.read))
			s.read = append(s.read, int32(i))
		}
	}
	return s
}

// markDetail marks the detail nodes walkDetail reads for [l, r]: every node
// it multiplies, including those whose coefficient is zero, so the compact
// oracle reproduces walkDetail's arithmetic bit for bit.
func markDetail(mark []bool, node, a, b, l, r int) {
	if b < l || r < a || a == b || (l <= a && b <= r) {
		return
	}
	mark[node] = true
	mid := (a + b) / 2
	markDetail(mark, 2*node+1, a, mid, l, r)
	markDetail(mark, 2*node+2, mid+1, b, l, r)
}

// Draw builds one release of the oracle at budget eps. It consumes exactly
// the Source values NewOracle(kind, m, eps, src) consumes, and IntervalNoise
// over any of the support's intervals is bit-identical to that oracle's.
// Cell and Hier oracles are built in full once any interval is given; a
// Privelet oracle transforms only the nodes the intervals read. With no
// intervals Draw only advances src and returns nil.
func (s *Support) Draw(eps float64, src *noise.Source) Oracle {
	switch {
	case !s.used:
		skipOracle(s.kind, s.m, eps, src)
		return nil
	case s.kind == PriveletKind:
		return newPriveletOracle(s.m, eps, src, s.read, s.slot)
	default:
		return NewOracle(s.kind, s.m, eps, src)
	}
}

// skipOracle advances src past every draw NewOracle(kind, m, eps, src)
// makes, mirroring each constructor's scales: no kind draws at eps ≤ 0.
func skipOracle(kind OracleKind, m int, eps float64, src *noise.Source) {
	if eps <= 0 {
		return
	}
	size, h := paddedSize(m)
	switch kind {
	case CellKind:
		skipLaplace(src, m, 1/eps)
	case HierKind:
		skipLaplace(src, 2*size-1, float64(h+1)/eps)
	case PriveletKind:
		rho := float64(h + 1)
		skipLaplace(src, 1, rho/(eps*float64(size)))
		for width, count := size, 1; width >= 2; width, count = width/2, count*2 {
			skipLaplace(src, count, rho/(eps*float64(width)))
		}
	}
}
