package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file holds the standard (unbounded) differentially private baselines
// of Section 6: Laplace for histograms, Privelet for 1-D and 2-D ranges, and
// DAWA for both. The experiment harness runs them at ε/2 when comparing with
// (ε, G)-Blowfish algorithms, following the figures' captions.

// DPLaplaceHist answers the histogram (or any workload whose queries are
// points) with per-cell Laplace noise, sensitivity 1.
func DPLaplaceHist() Algorithm {
	return baseline("Laplace", func(points []workload.Point, x []float64, eps float64, src *noise.Source) []float64 {
		noisy := mech.LaplaceVector(x, 1, eps, src)
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = noisy[int(p)]
		}
		return out
	})
}

// DPPriveletRange1D answers 1-D range queries with the Privelet wavelet
// mechanism over the original domain.
func DPPriveletRange1D() Algorithm {
	return baseline("Privelet", func(ranges []workload.Range1D, x []float64, eps float64, src *noise.Source) []float64 {
		oracle := mech.NewPriveletOracle(len(x), eps, src)
		prefix := workload.PrefixSums(x)
		out := make([]float64, len(ranges))
		for i, r := range ranges {
			out[i] = workload.EvalRange1D(prefix, r) + oracle.IntervalNoise(r.L, r.R)
		}
		return out
	})
}

// DPDawaRange1D answers 1-D range queries with the data-dependent DAWA
// mechanism over the original domain.
func DPDawaRange1D() Algorithm {
	return baseline("Dawa", func(ranges []workload.Range1D, x []float64, eps float64, src *noise.Source) []float64 {
		d := mech.NewDAWA(x, eps, mech.DefaultPartitionRatio, src)
		out := make([]float64, len(ranges))
		for i, r := range ranges {
			out[i] = d.EstimateRange(r.L, r.R)
		}
		return out
	})
}

// DPDawaHist answers point queries from a DAWA histogram estimate.
func DPDawaHist() Algorithm {
	return baseline("Dawa", func(points []workload.Point, x []float64, eps float64, src *noise.Source) []float64 {
		d := mech.NewDAWA(x, eps, mech.DefaultPartitionRatio, src)
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = d.EstimatePoint(int(p))
		}
		return out
	})
}

// DPPriveletRangeKd answers hyper-rectangle queries with the tensor-product
// Privelet mechanism over the original grid.
func DPPriveletRangeKd(dims []int) Algorithm {
	return baseline("Privelet", func(rects []workload.RangeKd, x []float64, eps float64, src *noise.Source) []float64 {
		oracle := mech.NewPriveletKd(dims, eps, src)
		table := workload.SummedAreaTable(dims, x)
		out := make([]float64, len(rects))
		for i, r := range rects {
			out[i] = workload.EvalRangeKd(dims, table, r) + oracle.RectNoise(r.Lo, r.Hi)
		}
		return out
	})
}

// DPDawaRangeKd answers hyper-rectangle queries by flattening the grid with
// a locality-preserving boustrophedon (snake) order and running 1-D DAWA on
// the flattened histogram; rectangle answers are assembled row by row. The
// published DAWA uses a Hilbert ordering for 2-D; the snake order is a
// simpler substitute with the same property the experiments rely on:
// consecutive flat positions are grid neighbors, so clustered 2-D data stays
// in long uniform runs DAWA can partition. Only 2-D grids are supported;
// other dims fail at Prepare.
func DPDawaRangeKd(dims []int) Algorithm {
	if len(dims) != 2 {
		return Algorithm{Name: "Dawa", Prepare: func(*workload.Workload) (*Prepared, error) {
			return nil, fmt.Errorf("strategy: Dawa Kd baseline supports 2-D grids, got dims %v", dims)
		}}
	}
	rows, cols := dims[0], dims[1]
	return baseline("Dawa", func(rects []workload.RangeKd, x []float64, eps float64, src *noise.Source) []float64 {
		flat := make([]float64, len(x))
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				flat[snakeIndex(r, c, cols)] = x[r*cols+c]
			}
		}
		d := mech.NewDAWA(flat, eps, mech.DefaultPartitionRatio, src)
		out := make([]float64, len(rects))
		for i, rq := range rects {
			var v float64
			for r := rq.Lo[0]; r <= rq.Hi[0]; r++ {
				a := snakeIndex(r, rq.Lo[1], cols)
				b := snakeIndex(r, rq.Hi[1], cols)
				if a > b {
					a, b = b, a
				}
				v += d.EstimateRange(a, b)
			}
			out[i] = v
		}
		return out
	})
}

// baseline assembles a DP baseline. Prepare checks once that every workload
// query is a T and keeps them typed; each release then runs the mechanism
// on database x and answers those queries. The baselines have no
// workload-dependent strategy, so they count no compilations.
func baseline[T workload.Query](name string, release func(qs []T, x []float64, eps float64, src *noise.Source) []float64) Algorithm {
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		qs := make([]T, w.Len())
		for i, q := range w.Queries {
			t, ok := q.(T)
			if !ok {
				return nil, fmt.Errorf("strategy: %s baseline wants %T queries, got %T", name, t, q)
			}
			qs[i] = t
		}
		return &Prepared{Name: name, answer: func(x []float64, eps float64, src *noise.Source) ([]float64, error) {
			if err := checkDomain(w, x); err != nil {
				return nil, err
			}
			return release(qs, x, eps, src), nil
		}}, nil
	}}
}

// snakeIndex maps 2-D grid coordinates to the boustrophedon flattening:
// even rows run left→right, odd rows right→left, so consecutive flat
// positions are always grid neighbors.
func snakeIndex(r, c, cols int) int {
	if r%2 == 0 {
		return r*cols + c
	}
	return r*cols + (cols - 1 - c)
}
