package noise

import (
	"math"
	"testing"
)

func TestLaplaceDeterministic(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("same seed should give identical streams")
		}
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	s := NewSource(1)
	if s.Laplace(0) != 0 || s.Laplace(-1) != 0 {
		t.Fatal("non-positive scale must give zero noise")
	}
}

// TestSkipMatchesLaplaceDraws pins Skip(n) to the stream position n
// Laplace(b > 0) draws leave behind.
func TestSkipMatchesLaplaceDraws(t *testing.T) {
	for _, n := range []int{0, 1, 607, 100000} {
		drawn, skipped := NewSource(9), NewSource(9)
		for i := 0; i < n; i++ {
			drawn.Laplace(0.5)
		}
		skipped.Skip(n)
		if a, b := drawn.Uniform(), skipped.Uniform(); a != b {
			t.Fatalf("n=%d: next Uniform after Skip %v != after Laplace draws %v", n, b, a)
		}
	}
}

func TestLaplaceMomentsMatch(t *testing.T) {
	s := NewSource(7)
	const n = 200000
	const scale = 2.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Laplace(scale)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean %g, want ~0", mean)
	}
	// Var = 2b².
	want := 2 * scale * scale
	if math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("Laplace variance %g, want ~%g", variance, want)
	}
}

func TestLaplaceVecLength(t *testing.T) {
	s := NewSource(3)
	v := s.LaplaceVec(17, 1)
	if len(v) != 17 {
		t.Fatalf("len %d", len(v))
	}
}

func TestTwoSidedGeometricSymmetryAndSupport(t *testing.T) {
	s := NewSource(11)
	alpha := math.Exp(-0.5)
	const n = 100000
	var sum float64
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		z := s.TwoSidedGeometric(alpha)
		sum += float64(z)
		counts[z]++
	}
	if math.Abs(sum/n) > 0.05 {
		t.Fatalf("geometric mean %g, want ~0", sum/n)
	}
	// P(0) should match (1−α)/(1+α).
	p0 := float64(counts[0]) / n
	want := (1 - alpha) / (1 + alpha)
	if math.Abs(p0-want) > 0.01 {
		t.Fatalf("P(0) = %g, want %g", p0, want)
	}
	// Ratio P(2)/P(1) ≈ alpha.
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-alpha) > 0.05 {
		t.Fatalf("tail ratio %g, want %g", ratio, alpha)
	}
}

func TestTwoSidedGeometricBadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha >= 1 should panic")
		}
	}()
	NewSource(1).TwoSidedGeometric(1)
}

func TestExpMechIndexPrefersHighScores(t *testing.T) {
	s := NewSource(5)
	scores := []float64{0, 0, 10}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[s.ExpMechIndex(scores, 2, 1)]++
	}
	if counts[2] < 9500 {
		t.Fatalf("high-score output chosen only %d/10000 times", counts[2])
	}
}

func TestExpMechIndexUniformOnEqualScores(t *testing.T) {
	s := NewSource(6)
	scores := []float64{1, 1, 1, 1}
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.ExpMechIndex(scores, 1, 1)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/n-0.25) > 0.02 {
			t.Fatalf("index %d frequency %g, want ~0.25", i, float64(c)/n)
		}
	}
}

func TestExpMechIndexRatioMatchesEpsilon(t *testing.T) {
	s := NewSource(8)
	eps := 1.0
	scores := []float64{0, 1} // Δscore = 1
	counts := make([]int, 2)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[s.ExpMechIndex(scores, eps, 1)]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	want := math.Exp(eps / 2) // exp(ε·Δ/(2·sens))
	if math.Abs(ratio-want)/want > 0.05 {
		t.Fatalf("selection ratio %g, want %g", ratio, want)
	}
}

func TestSplitIndependence(t *testing.T) {
	s := NewSource(9)
	a := s.Split()
	b := s.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Laplace(1) == b.Laplace(1) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split sources look identical (%d/100 equal draws)", same)
	}
}

func TestUniformAndIntn(t *testing.T) {
	s := NewSource(10)
	for i := 0; i < 1000; i++ {
		if u := s.Uniform(); u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %g", u)
		}
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}
