package mech

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/privacylab/blowfish/internal/noise"
)

func TestOraclesZeroEpsGiveZeroNoise(t *testing.T) {
	src := noise.NewSource(1)
	for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
		o := NewOracle(kind, 13, 0, src)
		for l := 0; l < 13; l++ {
			for r := l; r < 13; r++ {
				if o.IntervalNoise(l, r) != 0 {
					t.Fatalf("kind %d: nonzero noise with eps=0", kind)
				}
			}
		}
	}
}

func TestOraclesConsistency(t *testing.T) {
	// Asking the same interval twice must give the same noise.
	src := noise.NewSource(2)
	for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
		o := NewOracle(kind, 17, 0.5, src)
		for trial := 0; trial < 50; trial++ {
			l := trial % 17
			r := l + (trial % (17 - l))
			if o.IntervalNoise(l, r) != o.IntervalNoise(l, r) {
				t.Fatalf("kind %d: inconsistent noise", kind)
			}
		}
	}
}

func TestOraclesLinearity(t *testing.T) {
	// For the cell and wavelet oracles interval noise is linear in the
	// interval indicator, so [l,r] = Σ_i [i,i]. (The hierarchical oracle
	// instead uses the canonical node decomposition, which is deliberately
	// non-linear — see TestHierCanonicalDecomposition.)
	src := noise.NewSource(3)
	for _, kind := range []OracleKind{CellKind, PriveletKind} {
		o := NewOracle(kind, 16, 1, src)
		for l := 0; l < 16; l++ {
			for r := l; r < 16; r++ {
				var sum float64
				for i := l; i <= r; i++ {
					sum += o.IntervalNoise(i, i)
				}
				got := o.IntervalNoise(l, r)
				if math.Abs(got-sum) > 1e-9*(1+math.Abs(sum)) {
					t.Fatalf("kind %d: noise [%d,%d] = %g, point sum %g", kind, l, r, got, sum)
				}
			}
		}
	}
}

func TestOraclesNonPowerOfTwoDomains(t *testing.T) {
	src := noise.NewSource(4)
	for _, m := range []int{1, 2, 3, 5, 7, 100} {
		for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
			o := NewOracle(kind, m, 1, src)
			if o.M() != m {
				t.Fatalf("M = %d, want %d", o.M(), m)
			}
			_ = o.IntervalNoise(0, m-1)
		}
	}
}

func TestOracleOutOfRangePanics(t *testing.T) {
	src := noise.NewSource(5)
	o := NewCellOracle(5, 1, src)
	for _, c := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("interval %v should panic", c)
				}
			}()
			o.IntervalNoise(c[0], c[1])
		}()
	}
}

func measureVariance(t *testing.T, mk func(src *noise.Source) Oracle, l, r, trials int) float64 {
	t.Helper()
	src := noise.NewSource(99)
	var sum, sq float64
	for i := 0; i < trials; i++ {
		o := mk(src.Split())
		v := o.IntervalNoise(l, r)
		sum += v
		sq += v * v
	}
	mean := sum / float64(trials)
	return sq/float64(trials) - mean*mean
}

func TestCellOracleVariance(t *testing.T) {
	// Lap(1/ε) per cell: interval of length L has variance 2L/ε².
	eps := 1.0
	v := measureVariance(t, func(s *noise.Source) Oracle { return NewCellOracle(32, eps, s) }, 4, 11, 4000)
	want := 2.0 * 8
	if math.Abs(v-want)/want > 0.15 {
		t.Fatalf("cell variance %g, want ~%g", v, want)
	}
}

func TestHierOracleVarianceScale(t *testing.T) {
	// Each node is Lap(h/ε); an aligned dyadic interval uses one node, so
	// its variance is 2h²/ε².
	m := 32
	h := 6 // levels for 32 = log2(32)+1
	v := measureVariance(t, func(s *noise.Source) Oracle { return NewHierOracle(m, 1, s) }, 0, 15, 4000)
	want := 2.0 * float64(h*h)
	if math.Abs(v-want)/want > 0.15 {
		t.Fatalf("hier variance %g, want ~%g", v, want)
	}
}

func TestPriveletBeatsCellsOnLongRanges(t *testing.T) {
	// For long intervals the wavelet mechanism must have far lower variance
	// than per-cell noise (log³ vs linear).
	m := 1024
	cell := measureVariance(t, func(s *noise.Source) Oracle { return NewCellOracle(m, 1, s) }, 0, m/2, 500)
	priv := measureVariance(t, func(s *noise.Source) Oracle { return NewPriveletOracle(m, 1, s) }, 0, m/2, 500)
	if priv*3 > cell {
		t.Fatalf("privelet variance %g not clearly below cell %g", priv, cell)
	}
}

func TestHierLevels(t *testing.T) {
	src := noise.NewSource(6)
	o := NewHierOracle(9, 1, src)
	if o.Levels() != 5 { // pad to 16: levels 16,8,4,2,1
		t.Fatalf("levels = %d, want 5", o.Levels())
	}
}

func TestQuickOracleLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(40)
		src := noise.NewSource(seed)
		kind := []OracleKind{CellKind, PriveletKind}[rng.Intn(2)]
		o := NewOracle(kind, m, 0.3, src)
		l := rng.Intn(m)
		r := l + rng.Intn(m-l)
		mid := l + rng.Intn(r-l+1)
		// Additivity over a split point.
		left := o.IntervalNoise(l, mid)
		var right float64
		if mid+1 <= r {
			right = o.IntervalNoise(mid+1, r)
		}
		whole := o.IntervalNoise(l, r)
		return math.Abs(whole-(left+right)) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHierCanonicalDecomposition verifies that the hierarchical oracle's
// interval noise equals the sum of its canonical dyadic node noises by
// reconstructing the decomposition independently.
func TestHierCanonicalDecomposition(t *testing.T) {
	src := noise.NewSource(31)
	o := NewHierOracle(16, 1, src)
	// An aligned dyadic block must equal exactly one node's noise: compare
	// [0,7] against its two half blocks' parents via the tree relation
	// noise([0,7]) != noise([0,3]) + noise([4,7]) in general, but
	// noise([0,3]) + noise([4,7]) must equal the sum of the two child nodes.
	whole := o.IntervalNoise(0, 7)
	left := o.IntervalNoise(0, 3)
	right := o.IntervalNoise(4, 7)
	if whole == left+right {
		t.Log("children happened to sum to parent (possible but unlikely)")
	}
	// Unaligned interval [1,6] decomposes into nodes {1},{2,3},{4,5},{6}.
	got := o.IntervalNoise(1, 6)
	sum := o.IntervalNoise(1, 1) + o.IntervalNoise(2, 3) + o.IntervalNoise(4, 5) + o.IntervalNoise(6, 6)
	if math.Abs(got-sum) > 1e-12 {
		t.Fatalf("canonical decomposition mismatch: %g vs %g", got, sum)
	}
}

// TestSupportDrawMatchesFullOracle pins Support.Draw to NewOracle: the same
// interval noise bit for bit, the same stream position afterwards, and nil
// with no intervals. eps = 1e307 overflows eps·width on the wide Privelet
// levels, so their scales are 0 and they draw nothing while narrow levels
// still draw.
func TestSupportDrawMatchesFullOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
		for _, m := range []int{1, 5, 9, 16, 17} {
			for _, eps := range []float64{0, 0.7, 1e307} {
				for _, n := range []int{0, 1, 4} {
					ivs := make([]Interval, n)
					for i := range ivs {
						l := rng.Intn(m)
						ivs[i] = Interval{L: l, R: l + rng.Intn(m-l)}
					}
					full := NewOracle(kind, m, eps, noise.NewSource(int64(m)))
					src := noise.NewSource(int64(m))
					got := NewSupport(kind, m, ivs).Draw(eps, src)
					if n == 0 && got != nil {
						t.Fatalf("kind %d m=%d: Draw with no intervals returned %v", kind, m, got)
					}
					for _, iv := range ivs {
						a, b := full.IntervalNoise(iv.L, iv.R), got.IntervalNoise(iv.L, iv.R)
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("kind %d m=%d eps=%g %v: support noise %v != full %v", kind, m, eps, iv, b, a)
						}
					}
					after := noise.NewSource(int64(m))
					NewOracle(kind, m, eps, after)
					if a, b := after.Uniform(), src.Uniform(); a != b {
						t.Fatalf("kind %d m=%d eps=%g n=%d: stream position differs after Draw", kind, m, eps, n)
					}
				}
			}
		}
	}
}
