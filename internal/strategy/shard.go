package strategy

import (
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file is the domain-sharding side of the compile/run split. Past
// sparse.DefaultShardCells the grid compiles stop emitting one monolithic
// summed-area operator and instead partition the domain into contiguous
// dim-0 slabs: each slab gets the queries clipped to it, the per-slab
// sub-operators are compile work items fanned out over the shared pool, and
// reconstruction becomes a sparse.BlockedOperator that evaluates slab
// partials in parallel and reduces them in ascending slab order. Streams
// need no slab layout of their own: they maintain the answer vector W·x
// (see stream.go), whose patches never touch the domain, and rebuild it
// through this same blocked operator, so a recomputed stream answers
// bitwise identically to the static sharded path.
//
// Tree compiles shard differently: their reconstruction is a CSR whose rows
// accumulate in support-discovery order, so reassociating columns would
// perturb the float chain. Past the same threshold the compile instead
// shards the *construction* — per-query-block support discovery and row
// building on the pool, concatenated into a byte-identical CSR — which
// parallelizes the expensive part (compile) while the operator, and thus
// every answer, stays bitwise identical to the serial build at any block
// size and worker count.
//
// The oracle noise pass is never sharded: oracles draw from one
// noise.Source serially, and that draw order is the contract that keeps
// sharded, unsharded, streamed, and batched releases interchangeable.

// Config carries the sharding knobs every compile accepts.
//
// MaxBlockCells = 0 is automatic: domains (or, for tree compiles, query
// counts) above sparse.DefaultShardCells shard into blocks of that size,
// everything below stays on the monolithic path — so every pre-sharding
// domain compiles exactly as before. MaxBlockCells < 0 disables sharding
// outright. MaxBlockCells >= 1 forces blocks of at most that many cells
// (grids round it to whole dim-0 slices; a single slice larger than the cap
// becomes one block on its own).
//
// Pool is where per-block compile work items and blocked reconstructions
// fan out; nil means par.Shared().
type Config struct {
	MaxBlockCells int
	Pool          *par.Pool
}

// blockCells resolves the block size for a domain (or query set) of size n:
// 0 means "do not shard".
func (c Config) blockCells(n int) int {
	switch {
	case c.MaxBlockCells < 0:
		return 0
	case c.MaxBlockCells == 0:
		if n > sparse.DefaultShardCells {
			return sparse.DefaultShardCells
		}
		return 0
	default:
		return c.MaxBlockCells
	}
}

func (c Config) pool() *par.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return par.Shared()
}

// gridTruth resolves the truth side of a grid compile under cfg: the
// workload-evaluation operator. Below the sharding threshold it is the
// classic monolithic rangeKdOp, byte-for-byte the pre-sharding path.
func gridTruth(dims []int, rects []workload.RangeKd, cfg Config) (sparse.Operator, error) {
	if shard := newGridShard(dims, rects, cfg); shard != nil {
		return shard.operator()
	}
	k := 1
	for _, d := range dims {
		k *= d
	}
	return &rangeKdOp{dims: dims, k: k, rects: rects}, nil
}

// gridShard is the compiled shard artifact for one (dims, rects) grid
// workload: the slab partition plus, per slab, the queries intersecting it
// with their rectangles clipped to slab-local coordinates.
type gridShard struct {
	k        int
	queries  int
	blocks   []par.Block          // cell ranges, ascending, tiling [0, k)
	slabDims [][]int              // per slab: {slab rows, dims[1:]...}
	qidx     [][]int              // per slab: workload query index per clipped rect
	rects    [][]workload.RangeKd // per slab: clipped, slab-local rects
	pool     *par.Pool
}

// newGridShard builds the shard artifact, or nil when the configuration
// keeps this domain on the monolithic path (block size resolves to 0, or
// the partition degenerates to a single slab). Clipping fans out over the
// pool, one work item per slab.
func newGridShard(dims []int, rects []workload.RangeKd, cfg Config) *gridShard {
	k := 1
	for _, d := range dims {
		k *= d
	}
	cells := cfg.blockCells(k)
	if cells == 0 {
		return nil
	}
	inner := k / dims[0] // dim-0 slice size
	blocks := sparse.ShardBlocks(k, inner, cells)
	if len(blocks) <= 1 {
		return nil
	}
	g := &gridShard{
		k:        k,
		queries:  len(rects),
		blocks:   blocks,
		slabDims: make([][]int, len(blocks)),
		qidx:     make([][]int, len(blocks)),
		rects:    make([][]workload.RangeKd, len(blocks)),
		pool:     cfg.pool(),
	}
	g.pool.Do(par.Workers(0), len(blocks), func(i int) {
		lo0 := blocks[i].Lo / inner
		hi0 := blocks[i].Hi / inner
		sd := append([]int{hi0 - lo0}, dims[1:]...)
		g.slabDims[i] = sd
		for qi, rq := range rects {
			if rq.Hi[0] < lo0 || rq.Lo[0] >= hi0 {
				continue
			}
			clip := workload.RangeKd{
				Dims: sd,
				Lo:   append([]int(nil), rq.Lo...),
				Hi:   append([]int(nil), rq.Hi...),
			}
			if clip.Lo[0] < lo0 {
				clip.Lo[0] = lo0
			}
			if clip.Hi[0] > hi0-1 {
				clip.Hi[0] = hi0 - 1
			}
			clip.Lo[0] -= lo0
			clip.Hi[0] -= lo0
			g.qidx[i] = append(g.qidx[i], qi)
			g.rects[i] = append(g.rects[i], clip)
		}
	})
	return g
}

// operator assembles the blocked truth operator: one slabRangeOp per slab,
// built as parallel compile work items, reduced by sparse.BlockedOperator
// in ascending slab order.
func (g *gridShard) operator() (sparse.Operator, error) {
	return sparse.NewBlockedOperator(g.queries, g.k, g.blocks, func(i int, b par.Block) (sparse.Operator, error) {
		return &slabRangeOp{dims: g.slabDims[i], cells: b.Hi - b.Lo, queries: g.queries,
			qidx: g.qidx[i], rects: g.rects[i]}, nil
	}, g.pool)
}

// slabRangeOp evaluates one slab's clipped rectangles: Apply builds the
// slab-local summed-area table (O(slab cells)) and accumulates each clipped
// query's corner reads into its workload row.
type slabRangeOp struct {
	dims    []int
	cells   int
	queries int
	qidx    []int
	rects   []workload.RangeKd
}

// Dims returns (#workload queries, slab cells).
func (o *slabRangeOp) Dims() (int, int) { return o.queries, o.cells }

// Apply writes the slab's partial answers into dst, overwriting it (queries
// that miss the slab get 0).
func (o *slabRangeOp) Apply(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	o.AddApply(dst, x)
}

// AddApply accumulates dst += the slab partials.
func (o *slabRangeOp) AddApply(dst, x []float64) {
	table := workload.SummedAreaTable(o.dims, x)
	for j, rq := range o.rects {
		dst[o.qidx[j]] += workload.EvalRangeKd(o.dims, table, rq)
	}
}
