package sparse_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/sparse"
)

// TestShardBlocks pins the tiling contract: contiguous ascending blocks,
// alignment never split, oversized aligned units allowed through.
func TestShardBlocks(t *testing.T) {
	cases := []struct {
		name                   string
		cells, align, maxCells int
		want                   []par.Block
	}{
		{"even split", 12, 1, 4, []par.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}, {Lo: 8, Hi: 12}}},
		{"non-divisible tail", 10, 1, 4, []par.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}, {Lo: 8, Hi: 10}}},
		{"single block", 5, 1, 100, []par.Block{{Lo: 0, Hi: 5}}},
		{"block size 1", 3, 1, 1, []par.Block{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}}},
		{"aligned slices", 12, 3, 7, []par.Block{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}}},
		{"oversized aligned unit", 8, 4, 3, []par.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}}},
		{"default cap", 10, 1, 0, []par.Block{{Lo: 0, Hi: 10}}},
	}
	for _, tc := range cases {
		got := sparse.ShardBlocks(tc.cells, tc.align, tc.maxCells)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ShardBlocks(%d, %d, %d) = %v, want %v",
				tc.name, tc.cells, tc.align, tc.maxCells, got, tc.want)
		}
	}
	// Every tiling must cover [0, cells) exactly, whatever the parameters.
	for _, cells := range []int{1, 7, 64, 1000} {
		for _, align := range []int{1, 3, 8} {
			for _, max := range []int{1, 5, 64, 10000} {
				blocks := sparse.ShardBlocks(cells, align, max)
				lo := 0
				for _, b := range blocks {
					if b.Lo != lo || b.Hi <= b.Lo {
						t.Fatalf("ShardBlocks(%d,%d,%d): block %v breaks tiling at %d", cells, align, max, b, lo)
					}
					lo = b.Hi
				}
				if lo != cells {
					t.Fatalf("ShardBlocks(%d,%d,%d): covers [0,%d), want [0,%d)", cells, align, max, lo, cells)
				}
			}
		}
	}
}

// TestConcatRows checks a serially built CSR and the concatenation of its
// row blocks are byte-identical — the property the sharded tree compile
// rides for bitwise-identical reconstruction.
func TestConcatRows(t *testing.T) {
	rows, cols := 37, 19
	fill := func(b *sparse.Builder, lo, hi int) {
		s := noise.NewSource(3) // same entry stream regardless of blocking
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if s.Uniform() < 0.3 {
					v := s.Uniform()*2 - 1
					if i >= lo && i < hi {
						b.Add(i-lo, j, v)
					}
				}
			}
		}
	}
	whole := sparse.NewBuilder(rows, cols)
	fill(whole, 0, rows)
	want := whole.Build()

	var parts []*sparse.CSR
	for _, b := range sparse.ShardBlocks(rows, 1, 10) {
		pb := sparse.NewBuilder(b.Hi-b.Lo, cols)
		fill(pb, b.Lo, b.Hi)
		parts = append(parts, pb.Build())
	}
	got, err := sparse.ConcatRows(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.RowPtr, want.RowPtr) || !reflect.DeepEqual(got.ColIdx, want.ColIdx) {
		t.Fatal("ConcatRows: structure differs from serial build")
	}
	for i := range want.Val {
		if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			t.Fatalf("ConcatRows: Val[%d] = %v, want %v (bitwise)", i, got.Val[i], want.Val[i])
		}
	}
	if _, err := sparse.ConcatRows(nil); err == nil {
		t.Fatal("want error for empty parts")
	}
	if _, err := sparse.ConcatRows([]*sparse.CSR{want, sparse.NewBuilder(1, cols+1).Build()}); err == nil {
		t.Fatal("want error for column mismatch")
	}
}

// blockedFromCSR shards a CSR along column blocks into a BlockedOperator
// whose sub-operators are the column sub-matrices.
func blockedFromCSR(t *testing.T, m *sparse.CSR, maxCells int) *sparse.BlockedOperator {
	t.Helper()
	blocks := sparse.ShardBlocks(m.Cols, 1, maxCells)
	op, err := sparse.NewBlockedOperator(m.Rows, m.Cols, blocks, func(i int, b par.Block) (sparse.Operator, error) {
		sub := sparse.NewBuilder(m.Rows, b.Hi-b.Lo)
		for r := 0; r < m.Rows; r++ {
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				if c := m.ColIdx[p]; c >= b.Lo && c < b.Hi {
					sub.Add(r, c-b.Lo, m.Val[p])
				}
			}
		}
		return sub.Build(), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestBlockedOperatorApply compares blocked Apply/AddApply against the
// monolithic operator across block sizes, including block size 1 and a
// single covering block, on a non-divisible width.
func TestBlockedOperatorApply(t *testing.T) {
	src := noise.NewSource(17)
	rows, cols := 23, 41 // 41 prime: never divisible by the block sizes
	b := sparse.NewBuilder(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if src.Uniform() < 0.4 {
				b.Add(r, c, src.Uniform()*2-1)
			}
		}
	}
	m := b.Build()
	x := make([]float64, cols)
	for i := range x {
		x[i] = src.Uniform()*10 - 5
	}
	want := m.MulVec(x)
	for _, maxCells := range []int{1, 7, 16, cols, 10 * cols} {
		op := blockedFromCSR(t, m, maxCells)
		if r, c := op.Dims(); r != rows || c != cols {
			t.Fatalf("maxCells=%d: Dims() = %dx%d, want %dx%d", maxCells, r, c, rows, cols)
		}
		dst := make([]float64, rows)
		op.Apply(dst, x)
		for i := range want {
			if math.Abs(dst[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("maxCells=%d: Apply[%d] = %v, want %v", maxCells, i, dst[i], want[i])
			}
		}
		// AddApply folds into a seeded dst.
		seed := make([]float64, rows)
		for i := range seed {
			seed[i] = float64(i) * 0.5
		}
		add := append([]float64(nil), seed...)
		op.AddApply(add, x)
		for i := range want {
			if math.Abs(add[i]-(seed[i]+want[i])) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("maxCells=%d: AddApply[%d] = %v, want %v", maxCells, i, add[i], seed[i]+want[i])
			}
		}
		// Repeated Apply on the same operator is bitwise stable: the serial
		// ascending-block reduce makes results independent of scheduling.
		again := make([]float64, rows)
		op.Apply(again, x)
		for i := range dst {
			if math.Float64bits(again[i]) != math.Float64bits(dst[i]) {
				t.Fatalf("maxCells=%d: Apply not deterministic at row %d", maxCells, i)
			}
		}
	}
}

// TestBlockedOperatorValidation checks tiling and shape validation.
func TestBlockedOperatorValidation(t *testing.T) {
	ident := func(n int) sparse.Operator {
		b := sparse.NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 1)
		}
		return b.Build()
	}
	build := func(i int, b par.Block) (sparse.Operator, error) { return ident(b.Hi - b.Lo), nil }
	if _, err := sparse.NewBlockedOperator(4, 4, nil, build, nil); err == nil {
		t.Fatal("want error for no blocks")
	}
	if _, err := sparse.NewBlockedOperator(4, 4, []par.Block{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 4}}, build, nil); err == nil {
		t.Fatal("want error for gap in tiling")
	}
	if _, err := sparse.NewBlockedOperator(4, 4, []par.Block{{Lo: 0, Hi: 2}}, build, nil); err == nil {
		t.Fatal("want error for short cover")
	}
	// Sub-operator rows must match the declared rows (ident gives b.Hi-b.Lo).
	if _, err := sparse.NewBlockedOperator(4, 4, []par.Block{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}, build, nil); err == nil {
		t.Fatal("want error for sub-operator shape mismatch")
	}
}
