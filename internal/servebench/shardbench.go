package servebench

import (
	"context"
	"fmt"
	"math"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/eval"
)

// ShardBenchOptions sizes the domain-sharding experiment.
type ShardBenchOptions struct {
	// Seed makes histograms and workloads deterministic.
	Seed int64
	// GridSides are the side lengths of the side×side grid scenarios.
	GridSides []int
	// TreeDomains are the 1-D line-policy domain sizes for the compile rows.
	TreeDomains []int
	// Queries is the number of random range queries per grid workload.
	Queries int
	// TreeQueries is the number of random range queries per tree workload
	// (the sharded tree compile parallelizes per-query support discovery, so
	// the compile rows need enough queries to measure).
	TreeQueries int
	// Runs is how many timed repetitions each measurement averages over.
	Runs int
}

// QuickShardBench returns test/CI-sized options.
func QuickShardBench() ShardBenchOptions {
	return ShardBenchOptions{Seed: 1, GridSides: []int{32, 64}, TreeDomains: []int{4096},
		Queries: 200, TreeQueries: 400, Runs: 2}
}

// DefaultShardBench returns the acceptance-scale options: the largest grid is
// 1024×1024 — 1,048,576 cells, past the 10⁶-cell target.
func DefaultShardBench() ShardBenchOptions {
	return ShardBenchOptions{Seed: 1, GridSides: []int{512, 1024}, TreeDomains: []int{131072},
		Queries: 500, TreeQueries: 4096, Runs: 3}
}

func (o ShardBenchOptions) normalize() ShardBenchOptions {
	if o.Queries < 1 {
		o.Queries = 1
	}
	if o.TreeQueries < 1 {
		o.TreeQueries = 1
	}
	if o.Runs < 1 {
		o.Runs = 1
	}
	return o
}

// ShardExperiment measures what EngineOptions.ShardBlock buys past the
// million-cell mark, against the monolithic path (ShardBlock = -1) on the
// same policy, workload, histogram, and noise seeds:
//
//   - Grid answers: the blocked reconstruction builds per-slab summed-area
//     tables in parallel instead of one global table serially.
//   - Tree compiles: per-query-block support discovery and row building fan
//     out over the pool, concatenated into a byte-identical CSR.
//
// After every timed answer pair the experiment compares sharded against
// monolithic answers and fails if any query drifts beyond 1e-9, so the
// benchmark doubles as an equivalence check (the check itself is untimed);
// on the integer histograms used here the agreement is in fact exact.
func ShardExperiment(o ShardBenchOptions) ([]*eval.Table, error) {
	o = o.normalize()
	grid := &eval.Table{
		Title: fmt.Sprintf("Domain sharding: grid answers, blocked vs monolithic (%d queries, %d runs)",
			o.Queries, o.Runs),
		Metric:  "seconds per answer (best of runs) / monolithic-vs-sharded speedup",
		Columns: []string{"unsharded s/answer", "sharded s/answer", "answer speedup"},
	}
	src := blowfish.NewSource(o.Seed + 1700)
	for _, side := range o.GridSides {
		if err := runGridShardScenario(grid, side, o, src); err != nil {
			return nil, err
		}
	}
	tree := &eval.Table{
		Title: fmt.Sprintf("Domain sharding: tree compile, blocked vs serial construction (%d queries, %d runs)",
			o.TreeQueries, o.Runs),
		Metric:  "seconds per compile (best of runs) / serial-vs-sharded speedup",
		Columns: []string{"serial s/compile", "sharded s/compile", "compile speedup"},
	}
	for _, k := range o.TreeDomains {
		if err := runTreeShardScenario(tree, k, o, src); err != nil {
			return nil, err
		}
	}
	return []*eval.Table{grid, tree}, nil
}

// runGridShardScenario times one side×side grid under both engines and
// appends a row. The shard block is k/8 cells — 8 slabs at every scale, so
// quick CI sizes exercise the same code path as the million-cell run.
func runGridShardScenario(t *eval.Table, side int, o ShardBenchOptions, src *blowfish.Source) error {
	k := side * side
	label := fmt.Sprintf("grid %dx%d (k=%d)", side, side, k)
	block := k / 8
	if block < 1 {
		block = 1
	}
	pol := blowfish.GridPolicy(side)
	w := blowfish.RandomRangesKd([]int{side, side}, o.Queries, src.Split())
	ctx := context.Background()

	engMono, err := blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: -1})
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	plMono, err := engMono.Prepare(w, blowfish.Options{})
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	engShard, err := blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: block})
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	plShard, err := engShard.Prepare(w, blowfish.Options{})
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}

	data := src.Split()
	x := make([]float64, k)
	for i := range x {
		x[i] = math.Floor(data.Uniform() * 50)
	}

	// Static answers, noise included (identical serial draw order per seed).
	// Best-of-runs timing: the minimum discards GC and scheduler spikes, so
	// the gated speedup ratios are stable across CI hosts.
	monoSec, shardSec := math.Inf(1), math.Inf(1)
	for r := 0; r < o.Runs; r++ {
		seed := o.Seed + int64(r)
		start := time.Now()
		mono, err := plMono.AnswerWith(ctx, nil, x, 1.0, blowfish.NewSource(seed))
		if err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		monoSec = math.Min(monoSec, time.Since(start).Seconds())
		start = time.Now()
		shard, err := plShard.AnswerWith(ctx, nil, x, 1.0, blowfish.NewSource(seed))
		if err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		shardSec = math.Min(shardSec, time.Since(start).Seconds())
		if err := compareAnswers(label, "answer", r, shard, mono); err != nil {
			return err
		}
	}

	t.Rows = append(t.Rows, label)
	t.Cells = append(t.Cells, []float64{
		monoSec, shardSec, ratio(monoSec, shardSec),
	})
	return nil
}

// runTreeShardScenario times the tree strategy compile with construction
// sharding (block = queries/8) against the serial build, checking the two
// compiles answer identically, and appends a row.
func runTreeShardScenario(t *eval.Table, k int, o ShardBenchOptions, src *blowfish.Source) error {
	label := fmt.Sprintf("tree k=%d", k)
	block := o.TreeQueries / 8
	if block < 1 {
		block = 1
	}
	pol := blowfish.LinePolicy(k)
	w := blowfish.RandomRanges1D(k, o.TreeQueries, src.Split())
	warmup := blowfish.RandomRanges1D(k, 1, src.Split())
	ctx := context.Background()
	// Best-of-runs over the strategy compile alone: each run opens a fresh
	// engine (compiles are cached per engine) and warms the shared policy
	// transform with a 1-query Prepare, so the timed Prepare measures only
	// the per-query support discovery and CSR construction being sharded.
	serialSec, shardSec := math.Inf(1), math.Inf(1)
	var serial, shard *blowfish.Plan
	for r := 0; r < o.Runs; r++ {
		engSerial, err := blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: -1})
		if err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		if _, err := engSerial.Prepare(warmup, blowfish.Options{}); err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		start := time.Now()
		serial, err = engSerial.Prepare(w, blowfish.Options{})
		if err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		serialSec = math.Min(serialSec, time.Since(start).Seconds())

		engShard, err := blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: block})
		if err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		if _, err := engShard.Prepare(warmup, blowfish.Options{}); err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		start = time.Now()
		shard, err = engShard.Prepare(w, blowfish.Options{})
		if err != nil {
			return fmt.Errorf("eval: shard bench %s run %d: %w", label, r, err)
		}
		shardSec = math.Min(shardSec, time.Since(start).Seconds())
	}
	x := make([]float64, k)
	data := src.Split()
	for i := range x {
		x[i] = math.Floor(data.Uniform() * 20)
	}
	got, err := shard.AnswerWith(ctx, nil, x, 0.5, blowfish.NewSource(o.Seed))
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	want, err := serial.AnswerWith(ctx, nil, x, 0.5, blowfish.NewSource(o.Seed))
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	if err := compareAnswers(label, "compile", 0, got, want); err != nil {
		return err
	}
	t.Rows = append(t.Rows, label)
	t.Cells = append(t.Cells, []float64{serialSec, shardSec, ratio(serialSec, shardSec)})
	return nil
}

// compareAnswers is the in-loop equivalence gate: any sharded-vs-monolithic
// drift beyond 1e-9 fails the whole experiment.
func compareAnswers(label, what string, run int, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("eval: shard bench %s %s run %d: %d answers vs %d", label, what, run, len(got), len(want))
	}
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9 {
			return fmt.Errorf("eval: shard bench %s %s run %d query %d: sharded %v vs monolithic %v (|diff| %g > 1e-9)",
				label, what, run, i, got[i], want[i], diff)
		}
	}
	return nil
}

// ratio returns base/new, the higher-is-better speedup, or NaN when the new
// path measured zero.
func ratio(base, new float64) float64 {
	if new <= 0 {
		return math.NaN()
	}
	return base / new
}
