package main

import (
	"fmt"
	"math/rand"

	"github.com/privacylab/blowfish/client"
)

// shape sizes one workload. full is what the benchmark runs; tests shrink
// it so every workload finishes in a second or two.
type shape struct {
	K        int     // line domain size, or grid side
	Queries  int     // ranges (line) or rectangles (grid)
	Tenants  int     // tenants, split evenly over the callers
	Epsilon  float64 // ε of every measured release
	MaxCount int     // database cells are uniform integers in [0, MaxCount)
	Cells    int     // cell deltas per update
	Updates  int     // stream_grid updates sent after the measured phase (answer workloads)
	Setups   int     // daemon set-ups per run; setup_s is their median
	Restarts int     // kill -9 restarts per durable run; recover_s is their median
	Warmup   int     // unmeasured ops per caller before the measured phase
}

// callers is the load generator's closed-loop concurrency: each caller waits
// for its reply before sending the next request.
const callers = 2

var fullShapes = map[string]shape{
	"answer_wire":    {K: 512, Queries: 2000, Tenants: 8, Epsilon: 0.5, MaxCount: 100, Cells: 16, Updates: 6000, Setups: 5, Warmup: 50},
	"answer_durable": {K: 512, Queries: 20, Tenants: 8, Epsilon: 0.01, MaxCount: 100, Cells: 16, Updates: 6000, Setups: 5, Restarts: 7, Warmup: 100},
	"stream_grid":    {K: 512, Queries: 64, Tenants: 8, Epsilon: 0.01, MaxCount: 100, Cells: 16, Setups: 5, Warmup: 20},
}

// inputs is everything one run sends, generated from the seed alone.
type inputs struct {
	name    string
	shape   shape
	policy  client.PolicySpec
	work    client.WorkloadSpec
	tenants []string
	xs      [][]float64 // per-tenant database (answer workloads) or stream base
	rng     []*rand.Rand
}

func generate(name string, sh shape, seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{name: name, shape: sh}
	cells := sh.K
	switch name {
	case "answer_wire", "answer_durable":
		in.policy = client.PolicySpec{Kind: "line", K: sh.K}
		in.work = client.WorkloadSpec{Kind: "ranges", Ranges: make([][2]int, sh.Queries)}
		for i := range in.work.Ranges {
			a, b := r.Intn(sh.K), r.Intn(sh.K)
			in.work.Ranges[i] = [2]int{min(a, b), max(a, b)}
		}
	case "stream_grid":
		in.policy = client.PolicySpec{Kind: "grid", K: sh.K}
		cells = sh.K * sh.K
		in.work = client.WorkloadSpec{Kind: "rects", Rects: make([]client.RectSpec, sh.Queries)}
		for i := range in.work.Rects {
			lo, hi := make([]int, 2), make([]int, 2)
			for d := range 2 {
				a, b := r.Intn(sh.K), r.Intn(sh.K)
				lo[d], hi[d] = min(a, b), max(a, b)
			}
			in.work.Rects[i] = client.RectSpec{Lo: lo, Hi: hi}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for t := range sh.Tenants {
		in.tenants = append(in.tenants, fmt.Sprintf("tenant-%d", t))
		x := make([]float64, cells)
		for i := range x {
			x[i] = float64(r.Intn(sh.MaxCount))
		}
		in.xs = append(in.xs, x)
	}
	for range callers {
		in.rng = append(in.rng, rand.New(rand.NewSource(r.Int63())))
	}
	return in, nil
}

// owned lists the tenant indices caller c drives. Every tenant belongs to
// exactly one caller, so a caller always knows its tenants' exact history.
func (in *inputs) owned(c int) []int {
	var ts []int
	for t := c; t < len(in.tenants); t += callers {
		ts = append(ts, t)
	}
	return ts
}

// delta draws one update: Cells distinct-or-repeated cells moved by ±1.
func (in *inputs) delta(r *rand.Rand) client.DeltaSpec {
	n := len(in.xs[0])
	d := client.DeltaSpec{Cells: make([]int, in.shape.Cells), Values: make([]float64, in.shape.Cells)}
	for i := range d.Cells {
		d.Cells[i] = r.Intn(n)
		d.Values[i] = float64(2*r.Intn(2) - 1)
	}
	return d
}

// exact is the noise-free answer of the workload's queries over x.
func (in *inputs) exact(x []float64) []float64 {
	if in.policy.Kind == "line" {
		pre := make([]float64, len(x)+1)
		for i, v := range x {
			pre[i+1] = pre[i] + v
		}
		out := make([]float64, len(in.work.Ranges))
		for i, rg := range in.work.Ranges {
			out[i] = pre[rg[1]+1] - pre[rg[0]]
		}
		return out
	}
	k := in.shape.K
	// sat[(r+1)*(k+1)+(c+1)] sums x over rows <= r and columns <= c.
	sat := make([]float64, (k+1)*(k+1))
	for r := range k {
		for c := range k {
			sat[(r+1)*(k+1)+c+1] = x[r*k+c] + sat[r*(k+1)+c+1] + sat[(r+1)*(k+1)+c] - sat[r*(k+1)+c]
		}
	}
	at := func(r, c int) float64 { return sat[r*(k+1)+c] }
	out := make([]float64, len(in.work.Rects))
	for i, q := range in.work.Rects {
		r0, c0, r1, c1 := q.Lo[0], q.Lo[1], q.Hi[0]+1, q.Hi[1]+1
		out[i] = at(r1, c1) - at(r0, c1) - at(r1, c0) + at(r0, c0)
	}
	return out
}
