package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// grid2DStrategy is the eager reference for the grid noise pass: every
// line's full oracle, drawn vertical lines first, then horizontal ones.
type grid2DStrategy struct {
	rows, cols int
	vLines     []mech.Oracle // vLines[r]: edges (r,c)-(r+1,c), position c
	hLines     []mech.Oracle // hLines[c]: edges (r,c)-(r,c+1), position r
}

func newGrid2DStrategy(rows, cols int, kind mech.OracleKind, eps float64, src *noise.Source) *grid2DStrategy {
	s := &grid2DStrategy{rows: rows, cols: cols}
	s.vLines = make([]mech.Oracle, rows-1)
	for r := range s.vLines {
		s.vLines[r] = mech.NewOracle(kind, cols, eps, src)
	}
	s.hLines = make([]mech.Oracle, cols-1)
	for c := range s.hLines {
		s.hLines[c] = mech.NewOracle(kind, rows, eps, src)
	}
	return s
}

// queryNoise assembles the signed boundary-run noise for rectangle
// [r1,r2]×[c1,c2] (sign convention as in newGridNoise).
func (s *grid2DStrategy) queryNoise(r1, r2, c1, c2 int) float64 {
	var n float64
	if r1 > 0 {
		n -= s.vLines[r1-1].IntervalNoise(c1, c2)
	}
	if r2 < s.rows-1 {
		n += s.vLines[r2].IntervalNoise(c1, c2)
	}
	if c1 > 0 {
		n -= s.hLines[c1-1].IntervalNoise(r1, r2)
	}
	if c2 < s.cols-1 {
		n += s.hLines[c2].IntervalNoise(r1, r2)
	}
	return n
}

// thetaNoiseRef is the θ-grid noise pass with the eager reference drawing
// the external lattice lines.
func thetaNoiseRef(lay *thetaLayout2D, w *workload.Workload, eps float64, src *noise.Source) []float64 {
	effEps := eps
	if eps > 0 {
		effEps = core.EffectiveEpsilon(eps, lay.stretch)
	}
	ext := newGrid2DStrategy(lay.redRows, lay.redCols, mech.PriveletKind, effEps, src)
	s := &thetaGrid2D{thetaLayout2D: *lay}
	s.drawBands(effEps, src)
	out := make([]float64, w.Len())
	for i, q := range w.Queries {
		rq := q.(workload.RangeKd)
		qr := rect{rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1]}
		a1, a2 := latticeInterval(qr.r1, qr.r2, lay.cell, lay.rows, lay.redRows)
		b1, b2 := latticeInterval(qr.c1, qr.c2, lay.cell, lay.cols, lay.redCols)
		var n float64
		if a1 <= a2 && b1 <= b2 {
			n += ext.queryNoise(a1, a2, b1, b2)
		}
		if lay.cell > 1 {
			for _, p := range lay.internalPieces(qr) {
				n += s.internalNoise(p)
			}
		}
		out[i] = n
	}
	return out
}

// gridTestWorkload mixes random rectangles with the edge cases of the
// support walk: the whole grid and rectangles flush with each border (no
// boundary run on that side), single cells, and a repeated rectangle.
func gridTestWorkload(rows, cols int, rng *rand.Rand) *workload.Workload {
	w := &workload.Workload{Name: "rects", K: rows * cols}
	add := func(r1, r2, c1, c2 int) {
		w.Queries = append(w.Queries, workload.RangeKd{Dims: []int{rows, cols}, Lo: []int{r1, c1}, Hi: []int{r2, c2}})
	}
	add(0, rows-1, 0, cols-1)
	add(0, rows/2, 0, cols-1)
	add(rows/2, rows-1, cols/2, cols-1)
	add(rows-1, rows-1, 0, 0)
	for i := 0; i < 12; i++ {
		r1, c1 := rng.Intn(rows), rng.Intn(cols)
		add(r1, r1+rng.Intn(rows-r1), c1, c1+rng.Intn(cols-c1))
	}
	w.Queries = append(w.Queries, w.Queries[len(w.Queries)-1])
	return w
}

// TestGridNoiseSupportBitwise pins the support-driven noise pass to the
// eager reference: on the static and the stream path, every answer equals
// the noise-free answer plus the reference noise bit for bit, and the
// Source's next draw matches, so the pass consumed exactly the reference's
// draws.
func TestGridNoiseSupportBitwise(t *testing.T) {
	type compiler func(w *workload.Workload) (*Prepared, func(eps float64, src *noise.Source) []float64, error)
	grid := func(rows, cols int, kind mech.OracleKind) compiler {
		return func(w *workload.Workload) (*Prepared, func(float64, *noise.Source) []float64, error) {
			p, err := CompileGridRange2D("g", []int{rows, cols}, kind, w, Config{})
			ref := func(eps float64, src *noise.Source) []float64 {
				s := newGrid2DStrategy(rows, cols, kind, eps, src)
				out := make([]float64, w.Len())
				for i, q := range w.Queries {
					rq := q.(workload.RangeKd)
					out[i] = s.queryNoise(rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1])
				}
				return out
			}
			return p, ref, err
		}
	}
	theta := func(rows, cols, th int) compiler {
		return func(w *workload.Workload) (*Prepared, func(float64, *noise.Source) []float64, error) {
			dims := []int{rows, cols}
			p, err := CompileThetaGridRange2D("gt", dims, th, w, Config{})
			if err != nil {
				return nil, nil, err
			}
			lay, err := newThetaLayout2D(dims, th)
			ref := func(eps float64, src *noise.Source) []float64 { return thetaNoiseRef(lay, w, eps, src) }
			return p, ref, err
		}
	}
	type gridCase struct {
		name       string
		rows, cols int
		compile    compiler
	}
	var cases []gridCase
	for _, kind := range []mech.OracleKind{mech.CellKind, mech.HierKind, mech.PriveletKind} {
		for _, d := range [][2]int{{5, 13}, {1, 9}, {9, 1}, {16, 16}, {33, 20}} {
			cases = append(cases, gridCase{fmt.Sprintf("grid/kind%d/%dx%d", kind, d[0], d[1]), d[0], d[1], grid(d[0], d[1], kind)})
		}
	}
	for _, c := range []struct{ rows, cols, theta int }{{12, 12, 2}, {17, 11, 3}, {40, 24, 4}, {6, 6, 1}} {
		cases = append(cases, gridCase{fmt.Sprintf("theta%d/%dx%d", c.theta, c.rows, c.cols), c.rows, c.cols, theta(c.rows, c.cols, c.theta)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.rows*100 + c.cols)))
			w := gridTestWorkload(c.rows, c.cols, rng)
			x := make([]float64, w.K)
			for i := range x {
				x[i] = float64(rng.Intn(7))
			}
			p, ref, err := c.compile(w)
			if err != nil {
				t.Fatal(err)
			}
			st, err := p.Refresh(x)
			if err != nil {
				t.Fatal(err)
			}
			paths := map[string]func(eps float64, src *noise.Source) ([]float64, error){
				"static": func(eps float64, src *noise.Source) ([]float64, error) { return p.Answer(x, eps, src) },
				"stream": st.Answer,
			}
			for path, answer := range paths {
				truth, err := answer(0, noise.NewSource(1))
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0, 0.8} {
					src, refSrc := noise.NewSource(5), noise.NewSource(5)
					got, err := answer(eps, src)
					if err != nil {
						t.Fatal(err)
					}
					want := ref(eps, refSrc)
					for i := range want {
						want[i] += truth[i]
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s eps=%g query %d %v: got %v, reference %v", path, eps, i, w.Queries[i], got[i], want[i])
						}
					}
					if a, b := src.Uniform(), refSrc.Uniform(); a != b {
						t.Fatalf("%s eps=%g: next draw %v after the pass, reference %v", path, eps, a, b)
					}
				}
			}
		})
	}
}

// TestGridRejectsRectOutsideGrid: a rectangle off the grid or with lo > hi
// is a compile error on both grid strategies, never a release-time panic.
func TestGridRejectsRectOutsideGrid(t *testing.T) {
	dims := []int{6, 8}
	for _, lohi := range [][4]int{{0, 0, 6, 0}, {0, 0, 0, 8}, {-1, 0, 2, 2}, {3, 0, 2, 5}, {0, 5, 2, 4}} {
		w := &workload.Workload{Name: "rects", K: 48, Queries: []workload.Query{
			workload.RangeKd{Dims: dims, Lo: []int{lohi[0], lohi[1]}, Hi: []int{lohi[2], lohi[3]}}}}
		if _, err := CompileGridRange2D("g", dims, mech.PriveletKind, w, Config{}); err == nil {
			t.Errorf("grid: rectangle %v compiled", lohi)
		}
		if _, err := CompileThetaGridRange2D("gt", dims, 2, w, Config{}); err == nil {
			t.Errorf("theta grid: rectangle %v compiled", lohi)
		}
	}
}
