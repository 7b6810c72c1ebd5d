// Million-cell walkthrough: a 1024×1024 grid domain (1,048,576 cells) served
// interactively under domain sharding.
//
// EngineOptions.ShardBlock left at 0 shards automatically past 65536 cells:
// the grid compile partitions the domain into contiguous dim-0 slabs, clips
// every range query to the slabs it intersects, and builds one summed-area
// sub-operator per slab as parallel compile work items. Answers evaluate
// slab partials in parallel and reduce them in a fixed ascending order, so
// results are bitwise independent of the worker count — and, on the integer
// count histograms used here, exactly equal to the unsharded engine, which
// this program verifies side by side.
//
// A stream maintains the workload's exact answers, so a single-cell delta
// touches only the queries whose rectangles contain the cell — O(queries),
// independent of the million cells — where a dense recompute re-evaluates
// the blocked truth operator over the whole domain; the timing printed at
// the end shows the gap.
//
//	go run ./examples/millioncell
//	SIDE=256 go run ./examples/millioncell   # smaller domain, same path
package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	blowfish "github.com/privacylab/blowfish"
)

func main() {
	side := 1024
	if s := os.Getenv("SIDE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			side = v
		}
	}
	k := side * side
	const queries = 400
	src := blowfish.NewSource(7)

	pol := blowfish.GridPolicy(side)
	w := blowfish.RandomRangesKd([]int{side, side}, queries, src.Split())
	x := make([]float64, k)
	data := src.Split()
	for i := range x {
		x[i] = math.Floor(data.Uniform() * 100)
	}

	// Sharded engine: ShardBlock 0 = automatic (blocks of 65536 cells here).
	start := time.Now()
	engine, err := blowfish.Open(pol, blowfish.EngineOptions{})
	if err != nil {
		panic(err)
	}
	plan, err := engine.Prepare(w, blowfish.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("domain %dx%d (k=%d): compiled %s over %d queries in %v\n",
		side, side, k, plan.Algorithm(), queries, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	noisy, err := plan.Answer(x, 0.5, blowfish.NewSource(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("answered %d range queries at eps=0.5 in %v (first: %.1f)\n",
		len(noisy), time.Since(start).Round(time.Millisecond), noisy[0])

	// The unsharded engine answers identically on integer counts: the noise
	// pass draws serially from the same Source either way, and integer slab
	// sums are exact under the fixed-order reduce.
	mono, err := blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: -1})
	if err != nil {
		panic(err)
	}
	monoPlan, err := mono.Prepare(w, blowfish.Options{})
	if err != nil {
		panic(err)
	}
	want, err := monoPlan.Answer(x, 0.5, blowfish.NewSource(1))
	if err != nil {
		panic(err)
	}
	for i := range want {
		if noisy[i] != want[i] {
			panic(fmt.Sprintf("query %d: sharded %v != unsharded %v", i, noisy[i], want[i]))
		}
	}
	fmt.Println("sharded answers identical to the unsharded engine, noise included")

	// Streaming: deltas patch the maintained answers; a dense recompute
	// rebuilds them from the histogram and must land on the same values.
	st, err := engine.OpenStream(plan, x, blowfish.StreamOptions{})
	if err != nil {
		panic(err)
	}
	const deltas = 32
	start = time.Now()
	for i := 0; i < deltas; i++ {
		if err := st.Apply(blowfish.Delta{Cells: []int{data.Intn(k)}, Values: []float64{1}}); err != nil {
			panic(err)
		}
	}
	deltaSec := time.Since(start).Seconds() / deltas
	patched, err := st.Answer(0, blowfish.NewSource(1))
	if err != nil {
		panic(err)
	}
	start = time.Now()
	st.Recompute()
	recomputeSec := time.Since(start).Seconds()
	rebuilt, err := st.Answer(0, blowfish.NewSource(1))
	if err != nil {
		panic(err)
	}
	for i := range rebuilt {
		if patched[i] != rebuilt[i] {
			panic(fmt.Sprintf("query %d: patched %v != recomputed %v", i, patched[i], rebuilt[i]))
		}
	}
	fmt.Printf("stream deltas: %.3f ms/delta incremental vs %.1f ms per dense recompute (%.0fx)\n",
		1e3*deltaSec, 1e3*recomputeSec, recomputeSec/deltaSec)
}
