package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func mkReport(speedup, ratio, dense float64) *report {
	return &report{
		Schema: "blowfishbench/v1",
		Experiments: []experiment{{
			ID: "sparse",
			Tables: []table{{
				Title:   "hot path",
				Columns: []string{"dense s/release", "sparse s/release", "speedup", "batch ratio"},
				Rows: []row{{
					Label: "k=512",
					Cells: []float64{dense, dense / speedup, speedup, ratio},
				}},
			}},
		}},
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	cur := mkReport(12, 0.8, 1e-3) // 40% and 11% down, tolerance 0.5
	res := gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
	if res.Compared != 2 {
		t.Fatalf("compared %d cells, want 2 (speedup + ratio)", res.Compared)
	}
}

func TestGateFailsBeyondTolerance(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	cur := mkReport(8, 0.9, 1e-3) // speedup down 60% > 50% tolerance
	res := gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "speedup") {
		t.Fatalf("want one speedup violation, got %v", res.Violations)
	}
	// Improvements never fail, however large.
	res = gate(base, mkReport(500, 1.5, 1e-3), 0.5, 1e-5)
	if len(res.Violations) != 0 {
		t.Fatalf("improvement flagged as regression: %v", res.Violations)
	}
}

func TestGateMinSecondsSkipsJitterySpeedups(t *testing.T) {
	base := mkReport(20, 0.9, 1e-8) // timings far below the floor
	cur := mkReport(1, 0.9, 1e-8)   // speedup collapsed, but unmeasurable
	res := gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 0 {
		t.Fatalf("sub-floor speedup gated: %v", res.Violations)
	}
	// The ratio column is not timing-derived and still gates.
	if res.Compared != 1 {
		t.Fatalf("compared %d cells, want 1 (ratio only)", res.Compared)
	}
	cur.Experiments[0].Tables[0].Rows[0].Cells[3] = 0.1
	res = gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "batch ratio") {
		t.Fatalf("want one ratio violation, got %v", res.Violations)
	}
}

func TestGateSkipsUnmatchedAndDegenerate(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	base.Experiments = append(base.Experiments, experiment{ID: "ghost"})
	cur := mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Rows[0].Label = "k=9999"
	res := gate(base, cur, 0.5, 1e-5)
	if res.Compared != 0 || len(res.Violations) != 0 {
		t.Fatalf("unmatched rows compared: %+v", res)
	}
	// NaN baseline (e.g. a zero-time division) is skipped, NaN current fails.
	base = mkReport(20, 0.9, 1e-3)
	base.Experiments[0].Tables[0].Rows[0].Cells[2] = math.NaN()
	res = gate(base, mkReport(20, 0.9, 1e-3), 0.5, 1e-5)
	if len(res.Violations) != 0 || res.Compared != 1 {
		t.Fatalf("NaN baseline handled wrong: %+v", res)
	}
	cur = mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Rows[0].Cells[2] = math.NaN()
	res = gate(mkReport(20, 0.9, 1e-3), cur, 0.5, 1e-5)
	if len(res.Violations) != 1 {
		t.Fatalf("NaN current not flagged: %+v", res)
	}
}

func TestLoadReportOnCheckedInBaselines(t *testing.T) {
	for _, name := range []string{
		"BENCH_sparse.json", "BENCH_fig10spectral.json", "BENCH_serve.json", "BENCH_stream.json",
	} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("baseline %s missing from repo root: %v", name, err)
		}
		r, err := loadReport(path)
		if err != nil {
			t.Fatalf("loadReport(%s): %v", name, err)
		}
		// Self-comparison must gate at least one cell and pass: the checked-in
		// baselines stay usable as gate inputs.
		res := gate(r, r, 0, 1e-5)
		if res.Compared == 0 {
			t.Errorf("%s: no gateable cells — the CI gate over it would be empty", name)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: self-comparison violations: %v", name, res.Violations)
		}
	}
}

// TestGateBaselinesInTree: every baseline the Makefile's gate target
// compares against, and every one CI recovers with `git show HEAD:`, must
// be in the tree and loadable — a missing one fails those gates at HEAD.
// Inside a git work tree each must also be tracked, since an ignored file
// can exist on disk yet be absent from every commit.
func TestGateBaselinesInTree(t *testing.T) {
	root := filepath.Join("..", "..")
	sources := []struct {
		file string
		re   *regexp.Regexp
	}{
		{"Makefile", regexp.MustCompile(`-baseline\s+(\S+)`)},
		{filepath.Join(".github", "workflows", "ci.yml"), regexp.MustCompile(`git show HEAD:(\S+)`)},
	}
	names := map[string]bool{}
	for _, src := range sources {
		raw, err := os.ReadFile(filepath.Join(root, src.file))
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if src.file == "Makefile" {
			// Only the gate target's recipe: from "gate:" to the next blank line.
			i := strings.Index(text, "\ngate:")
			if i < 0 {
				t.Fatal("Makefile has no gate target")
			}
			text = text[i:]
			if j := strings.Index(text, "\n\n"); j >= 0 {
				text = text[:j]
			}
		}
		found := src.re.FindAllStringSubmatch(text, -1)
		if len(found) == 0 {
			t.Fatalf("%s names no baselines; the pattern no longer matches", src.file)
		}
		for _, m := range found {
			names[m[1]] = true
		}
	}
	_, gitErr := exec.LookPath("git")
	inWorkTree := gitErr == nil && exec.Command("git", "-C", root, "rev-parse", "--is-inside-work-tree").Run() == nil
	for name := range names {
		path := filepath.Join(root, name)
		r, err := loadReport(path)
		if err != nil {
			t.Errorf("baseline %s: %v", name, err)
			continue
		}
		if res := gate(r, r, 0, 1e-5); res.Compared == 0 {
			t.Errorf("%s: no gateable cells — the gate over it would be empty", name)
		}
		if inWorkTree {
			if out, err := exec.Command("git", "-C", root, "ls-files", "--error-unmatch", "--", name).CombinedOutput(); err != nil {
				t.Errorf("baseline %s is not tracked by git (ignored?): %s", name, strings.TrimSpace(string(out)))
			}
		}
	}
}

func TestLoadReportRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Fatal("unsupported schema accepted")
	}
	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
