package strategy

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// The baseline golden suite pins the exact bit patterns of the six standard
// DP baselines at fixed seeds, the way the root package's
// testdata/answer_golden.json pins the Blowfish strategies. Any change to a
// baseline's float operations or noise-draw order shows up here.
//
// Regenerate (only for an intentional, reviewed behavior change):
//
//	go test ./internal/strategy -run TestBaselineGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/baseline_golden.json")

const baselineGoldenPath = "testdata/baseline_golden.json"

// baselineCase is one baseline answering one workload on one database.
// Random query sets draw from their own fixed source.
type baselineCase struct {
	name     string
	alg      Algorithm
	workload func(src *noise.Source) *workload.Workload
	x        []float64
}

// mixedDatabase is an irregular histogram; blockyDatabase alternates dense
// and empty runs of 8 cells, so DAWA's partition has several buckets.
func mixedDatabase(k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		x[i] = float64((i*13)%23 + 1)
	}
	return x
}

func blockyDatabase(k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		if (i/8)%2 == 0 {
			x[i] = 40
		}
	}
	return x
}

func baselineCases() []baselineCase {
	hist := func(k int) func(*noise.Source) *workload.Workload {
		return func(*noise.Source) *workload.Workload { return workload.Identity(k) }
	}
	ranges := func(k int) func(*noise.Source) *workload.Workload {
		return func(src *noise.Source) *workload.Workload { return workload.RandomRanges1D(k, 60, src) }
	}
	rects := func(dims []int) func(*noise.Source) *workload.Workload {
		return func(src *noise.Source) *workload.Workload { return workload.RandomRangesKd(dims, 40, src) }
	}
	return []baselineCase{
		{"laplace/hist", DPLaplaceHist(), hist(32), mixedDatabase(32)},
		{"privelet1d/ranges", DPPriveletRange1D(), ranges(32), mixedDatabase(32)},
		{"privelet1d/ranges/odd", DPPriveletRange1D(), ranges(21), mixedDatabase(21)},
		{"dawa1d/ranges", DPDawaRange1D(), ranges(32), mixedDatabase(32)},
		{"dawa1d/ranges/blocky", DPDawaRange1D(), ranges(64), blockyDatabase(64)},
		{"dawahist/hist", DPDawaHist(), hist(32), mixedDatabase(32)},
		{"dawahist/hist/blocky", DPDawaHist(), hist(64), blockyDatabase(64)},
		{"priveletkd/rects/2d", DPPriveletRangeKd([]int{8, 8}), rects([]int{8, 8}), mixedDatabase(64)},
		{"priveletkd/rects/3d", DPPriveletRangeKd([]int{4, 4, 4}), rects([]int{4, 4, 4}), mixedDatabase(64)},
		{"dawakd/rects", DPDawaRangeKd([]int{6, 6}), rects([]int{6, 6}), mixedDatabase(36)},
		{"dawakd/rects/blocky", DPDawaRangeKd([]int{5, 8}), rects([]int{5, 8}), blockyDatabase(40)},
	}
}

// baselineBits answers one case at ε = 0.7 and returns the exact float64
// bit patterns.
func baselineBits(t *testing.T, idx int, bc baselineCase) []string {
	t.Helper()
	w := bc.workload(noise.NewSource(int64(4000 + idx)))
	got, err := run(bc.alg, w, bc.x, 0.7, noise.NewSource(int64(3000+idx)))
	if err != nil {
		t.Fatalf("%s: %v", bc.name, err)
	}
	bits := make([]string, len(got))
	for i, v := range got {
		bits[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return bits
}

func TestBaselineGolden(t *testing.T) {
	results := map[string][]string{}
	for i, bc := range baselineCases() {
		results[bc.name] = baselineBits(t, i, bc)
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(baselineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", baselineGoldenPath, len(results))
		return
	}
	raw, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(results) {
		t.Fatalf("golden has %d cases, suite has %d", len(want), len(results))
	}
	for name, bits := range results {
		wb, ok := want[name]
		if !ok {
			t.Errorf("case %s missing from golden", name)
			continue
		}
		if len(wb) != len(bits) {
			t.Errorf("%s: got %d answers, golden has %d", name, len(bits), len(wb))
			continue
		}
		for i := range bits {
			if bits[i] != wb[i] {
				t.Errorf("%s: answer %d = %s, golden %s (not bitwise identical)", name, i, bits[i], wb[i])
				break
			}
		}
	}
}
