package eval

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// sparseBenchQueries caps the workload of the dense baseline: its q×|E|
// reconstruction matrix is materialized in full — 2000×16383×8 B ≈ 260 MB
// at the largest -full domain (transiently more while the CSR and its dense
// copy coexist during compilation), which is the most the experiment should
// ask of a CI runner.
const sparseBenchQueries = 2000

// SparseAnswerExperiment measures the operator layer's payoff on the answer
// hot path: the same compiled line-policy range strategy released through a
// fully dense reconstruction matrix (O(q·k) per release — the cost every
// strategy would pay without density selection, and the cost dense-compiled
// strategies did pay) versus the density-selected CSR operator (O(nnz)),
// across a sweep of domain sizes. Both paths replay identical pre-split noise streams; the
// experiment fails if any release pair drifts beyond 1e-9, so every
// benchmark run doubles as an equivalence check. Cells are wall-clock
// seconds per release plus the resulting speedup.
//
// The experiment runs at GOMAXPROCS=1 whatever the environment, restoring
// the setting on return: the dense side gains far more from extra cores
// than the sparse side, so their ratio would otherwise track the host's
// core count rather than the operator layer.
func SparseAnswerExperiment(opts Options) (*Table, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts = opts.normalize()
	base := 4096 / opts.DomainScale
	if base < 64 {
		base = 64
	}
	// Three octaves, capped at 16384 so the dense baseline stays tractable.
	var domains []int
	for k := base; k <= 4*base && k <= 16384; k *= 2 {
		domains = append(domains, k)
	}
	queries := opts.Queries
	if queries > sparseBenchQueries {
		queries = sparseBenchQueries
	}
	releases := opts.Runs * 3
	src := noise.NewSource(opts.Seed + 700)

	t := &Table{
		Title: fmt.Sprintf("Sparse operator hot path: R_k under G^1_k (%d queries, %d releases)",
			queries, releases),
		Metric:  "seconds per release (wall clock) / dense-vs-sparse speedup",
		Columns: []string{"dense s/release", "sparse s/release", "speedup"},
	}
	const eps = 1.0
	for _, k := range domains {
		w := workload.RandomRanges1D(k, queries, src.Split())
		x := make([]float64, k) // data-independent strategy: empty database
		tr, err := core.New(policy.Line(k))
		if err != nil {
			return nil, err
		}
		dense, err := strategy.CompileTreeDense("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w, strategy.Config{})
		if err != nil {
			return nil, err
		}
		sp, err := strategy.CompileTree("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w, strategy.Config{})
		if err != nil {
			return nil, err
		}
		denseSrcs := make([]*noise.Source, releases)
		sparseSrcs := make([]*noise.Source, releases)
		for r := range denseSrcs {
			seed := src.Int63()
			denseSrcs[r] = noise.NewSource(seed)
			sparseSrcs[r] = noise.NewSource(seed)
		}
		start := time.Now()
		denseOut := make([][]float64, releases)
		for r := 0; r < releases; r++ {
			denseOut[r], err = dense.Answer(x, eps, denseSrcs[r])
			if err != nil {
				return nil, fmt.Errorf("eval: sparse bench dense k=%d: %w", k, err)
			}
		}
		denseSec := time.Since(start).Seconds()
		start = time.Now()
		for r := 0; r < releases; r++ {
			got, err := sp.Answer(x, eps, sparseSrcs[r])
			if err != nil {
				return nil, fmt.Errorf("eval: sparse bench sparse k=%d: %w", k, err)
			}
			for i := range got {
				if d := math.Abs(got[i] - denseOut[r][i]); d > 1e-9 {
					return nil, fmt.Errorf("eval: sparse bench k=%d release %d query %d: sparse %v vs dense %v (|diff| %g > 1e-9)",
						k, r, i, got[i], denseOut[r][i], d)
				}
			}
		}
		sparseSec := time.Since(start).Seconds()
		// The sparse loop also pays the equivalence check above; that only
		// understates its speedup.
		speedup := math.NaN()
		if sparseSec > 0 {
			speedup = denseSec / sparseSec
		}
		t.Rows = append(t.Rows, fmt.Sprintf("k=%d", k))
		t.Cells = append(t.Cells, []float64{
			denseSec / float64(releases), sparseSec / float64(releases), speedup,
		})
	}
	return t, nil
}
