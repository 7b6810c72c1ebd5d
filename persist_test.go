package blowfish

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// TestAccountantStateRoundTrip pins the bitwise ledger round-trip through
// JSON that the daemon's snapshot format relies on: export, serialize,
// restore into a fresh accountant, and the spend, budget and release count
// are exactly the originals.
func TestAccountantStateRoundTrip(t *testing.T) {
	a, err := NewAccountant(Budget{Epsilon: 1.0, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate float drift on purpose: 0.1 + 0.07 + ... is not exactly
	// representable, which is exactly what must survive the round-trip.
	for _, eps := range []float64{0.1, 0.07, 0.33, 0.011} {
		if err := a.Charge(Budget{Epsilon: eps, Delta: 1e-8}, 1); err != nil {
			t.Fatalf("charge %g: %v", eps, err)
		}
	}
	st := a.ExportState()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back AccountantState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	b := newAccountant(Budget{})
	if err := b.RestoreState(back); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b.Spent() != a.Spent() || b.Budget() != a.Budget() || b.Releases() != a.Releases() {
		t.Fatalf("round-trip drifted: %+v vs %+v", b.ExportState(), a.ExportState())
	}

	// The restored ledger enforces exactly where the original would.
	errA := a.Charge(Budget{Epsilon: 0.6, Delta: 0}, 1)
	errB := b.Charge(Budget{Epsilon: 0.6, Delta: 0}, 1)
	if !errors.Is(errA, ErrBudgetExhausted) || !errors.Is(errB, ErrBudgetExhausted) {
		t.Fatalf("enforcement drifted: %v vs %v", errA, errB)
	}
}

func TestRestoreStateRejectsInvalid(t *testing.T) {
	a := newAccountant(Budget{})
	bad := []AccountantState{
		{Spent: Budget{Epsilon: -1}},
		{Spent: Budget{Epsilon: math.NaN()}},
		{Releases: -3},
		{Budget: Budget{Epsilon: math.Inf(1)}},
	}
	for i, st := range bad {
		if err := a.RestoreState(st); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("case %d: want ErrInvalidOptions, got %v", i, err)
		}
	}
}

// TestChargeLoggedCommitOrdering pins the write-ahead protocol: the commit
// callback sees the absolute post-charge state before the grant is
// observable, a failing commit leaves the ledger untouched, and a rejected
// charge never reaches the log.
func TestChargeLoggedCommitOrdering(t *testing.T) {
	a, err := NewAccountant(Budget{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	var logged []AccountantState
	commit := func(st AccountantState) error {
		logged = append(logged, st)
		return nil
	}
	if err := a.ChargeLogged(Budget{Epsilon: 0.25}, 2, commit); err != nil {
		t.Fatalf("charge: %v", err)
	}
	if len(logged) != 1 || logged[0].Spent.Epsilon != 0.5 || logged[0].Releases != 2 {
		t.Fatalf("logged %+v", logged)
	}
	if a.Spent().Epsilon != 0.5 {
		t.Fatalf("spent %g, want 0.5", a.Spent().Epsilon)
	}

	// A failing commit must not grant.
	sentinel := errors.New("disk gone")
	err = a.ChargeLogged(Budget{Epsilon: 0.25}, 1, func(AccountantState) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("want commit error, got %v", err)
	}
	if a.Spent().Epsilon != 0.5 || a.Releases() != 2 {
		t.Fatalf("failed commit mutated the ledger: %+v", a.ExportState())
	}

	// A rejected charge must not reach the log.
	before := len(logged)
	if err := a.ChargeLogged(Budget{Epsilon: 0.9}, 1, commit); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if len(logged) != before {
		t.Fatal("rejected charge was logged")
	}

	// ChargeLogged and Charge price identically (shared admission math).
	b, _ := NewAccountant(Budget{Epsilon: 1})
	b.Charge(Budget{Epsilon: 0.25}, 2)
	if b.ExportState().Spent != a.ExportState().Spent {
		t.Fatalf("ChargeLogged %+v != Charge %+v", a.ExportState().Spent, b.ExportState().Spent)
	}
}

// TestAdmitPricesWithoutCommitting pins the pre-check: Admit returns what
// Charge would return at that moment and never moves the ledger.
func TestAdmitPricesWithoutCommitting(t *testing.T) {
	a, err := NewAccountant(Budget{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(Budget{Epsilon: 0.75}, 1); err != nil {
		t.Fatalf("affordable release: %v", err)
	}
	if err := a.Admit(Budget{Epsilon: 0.75}, 2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("unaffordable release: want ErrBudgetExhausted, got %v", err)
	}
	if err := a.Admit(Budget{}, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("ε=0 under a finite budget: want ErrBudgetExhausted, got %v", err)
	}
	if err := a.Admit(Budget{Epsilon: 0.1}, -1); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative count: want ErrInvalidOptions, got %v", err)
	}
	if st := a.ExportState(); st.Spent != (Budget{}) || st.Releases != 0 {
		t.Fatalf("Admit moved the ledger: %+v", st)
	}
	if err := a.Charge(Budget{Epsilon: 0.75}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(Budget{Epsilon: 0.5}, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("after a charge: want ErrBudgetExhausted, got %v", err)
	}
}

// TestStreamStateRoundTrip is the tentpole restore property on every
// strategy branch: apply deltas through the incremental path (accumulating
// patch drift the dense rebuild would erase), export, serialize, restore,
// and the recovered stream answers bitwise identically to the original —
// noiseless and noised, from the same Source state.
func TestStreamStateRoundTrip(t *testing.T) {
	for _, tc := range streamCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open(tc.p, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pl, err := eng.Prepare(tc.w, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, tc.p.K)
			for i := range x {
				x[i] = float64((i*5)%11 + 1)
			}
			st, err := eng.OpenStream(pl, x, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dsrc := NewSource(31)
			for batch := 0; batch < 10; batch++ {
				cells := []int{dsrc.Intn(tc.p.K), dsrc.Intn(tc.p.K)}
				vals := []float64{0.1 * float64(dsrc.Intn(9)-4), float64(dsrc.Intn(5))}
				if err := st.Apply(Delta{Cells: cells, Values: vals}); err != nil {
					t.Fatal(err)
				}
			}

			raw, err := json.Marshal(st.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			var snap StreamState
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			rec, err := eng.RestoreStream(pl, &snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}

			db, rdb := st.Database(), rec.Database()
			for i := range db {
				if db[i] != rdb[i] {
					t.Fatalf("database[%d] drifted: %v vs %v", i, db[i], rdb[i])
				}
			}
			for _, eps := range []float64{0, 0.8} {
				want, err := st.AnswerWith(t.Context(), nil, eps, NewSource(7))
				if err != nil {
					t.Fatal(err)
				}
				got, err := rec.AnswerWith(t.Context(), nil, eps, NewSource(7))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("eps=%g answer[%d] drifted: %v vs %v", eps, i, want[i], got[i])
					}
				}
			}

			// Both streams keep evolving identically after the restore point.
			d := Delta{Cells: []int{0, tc.p.K - 1}, Values: []float64{2.5, -1.25}}
			if err := st.Apply(d); err != nil {
				t.Fatal(err)
			}
			if err := rec.Apply(d); err != nil {
				t.Fatal(err)
			}
			want, _ := st.AnswerWith(t.Context(), nil, 0, NewSource(9))
			got, _ := rec.AnswerWith(t.Context(), nil, 0, NewSource(9))
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("post-restore apply drifted at %d: %v vs %v", i, want[i], got[i])
				}
			}
		})
	}
}

func TestRestoreStreamRejectsCorruptShapes(t *testing.T) {
	eng, err := Open(LinePolicy(16), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eng.Prepare(AllRanges1D(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.OpenStream(pl, make([]float64, 16), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := st.ExportState()

	if _, err := eng.RestoreStream(pl, nil); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("nil state: %v", err)
	}
	wrongDomain := *good
	wrongDomain.Database = make([]float64, 8)
	if _, err := eng.RestoreStream(pl, &wrongDomain); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("wrong domain: %v", err)
	}
	truncated := *good
	truncated.Artifacts = good.Artifacts[:len(good.Artifacts)-1]
	if _, err := eng.RestoreStream(pl, &truncated); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("truncated artifacts: %v", err)
	}
}

// TestContinualRestartEquivalence is the satellite property: run a
// continual-release stream for a few epochs, snapshot mid-horizon, restore,
// and drive both the original and the recovered stream to the end of the
// horizon with identical inputs and noise seeds. The recovered run must
// never re-noise a node already closed before the snapshot (its restored
// answers are bitwise the originals), must produce identical releases after
// the restore point, and the ledger's worst-case spend must stay ≤ ε at
// every horizon on both runs.
func TestContinualRestartEquivalence(t *testing.T) {
	const (
		k      = 24
		eps    = 2.0
		epochs = 16
		window = 4
	)
	p := LinePolicy(k)
	w := AllRanges1D(k)
	eng, err := Open(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eng.Prepare(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.OpenStream(pl, make([]float64, k), StreamOptions{
		Continual: &BudgetContinual{Epsilon: eps, Epochs: epochs, Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted run. Pre-splitting one parent source into per-epoch
	// sources gives each epoch a noise stream that depends only on the epoch
	// index, so the interrupted run can reproduce the post-snapshot noise
	// exactly.
	const snapAt = 7
	parent := NewSource(1234)
	srcs := parent.SplitN(epochs)
	baseRels := []*EpochRelease{}
	var snap *StreamState
	for e := 0; e < epochs; e++ {
		applyEpoch(t, base, e)
		rel, err := base.Release(srcs[e])
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		baseRels = append(baseRels, rel)
		if s := base.Ledger().Spent(); s.Epsilon > eps*(1+1e-12) {
			t.Fatalf("epoch %d: spend ε=%g > %g", rel.Epoch, s.Epsilon, eps)
		}
		if rel.Epoch == snapAt {
			// Serialize through JSON exactly as the daemon snapshot would.
			raw, err := json.Marshal(base.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			snap = &StreamState{}
			if err := json.Unmarshal(raw, snap); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Crash-and-recover at snapAt.
	rec, err := eng.RestoreStream(pl, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	led := rec.Ledger()
	if led.Epochs() != snapAt {
		t.Fatalf("recovered ledger at epoch %d, want %d", led.Epochs(), snapAt)
	}
	nodesAtSnap := led.Nodes()
	if nodesAtSnap <= 0 {
		t.Fatal("no closed nodes recovered")
	}

	// The recovered stream replays the rest of the horizon with the same
	// per-epoch noise seeds.
	parent2 := NewSource(1234)
	srcs2 := parent2.SplitN(epochs)
	for e := snapAt; e < epochs; e++ {
		applyEpoch(t, rec, e)
		rel, err := rec.Release(srcs2[e])
		if err != nil {
			t.Fatalf("recovered epoch %d: %v", e, err)
		}
		want := baseRels[e]
		if rel.Epoch != want.Epoch || rel.WindowStart != want.WindowStart || rel.Nodes != want.Nodes {
			t.Fatalf("recovered release %d = %+v, want %+v", e, rel, want)
		}
		for i := range want.Answers {
			if rel.Answers[i] != want.Answers[i] {
				t.Fatalf("epoch %d answer[%d] drifted: %v vs %v — a restored node was re-noised",
					rel.Epoch, i, rel.Answers[i], want.Answers[i])
			}
		}
		if s := rec.Ledger().Spent(); s.Epsilon > eps*(1+1e-12) {
			t.Fatalf("recovered epoch %d: spend ε=%g > %g", rel.Epoch, s.Epsilon, eps)
		}
	}
	// Ledger counters converge with the uninterrupted run: same total node
	// count means no node was noised twice across the crash.
	if rec.Ledger().Nodes() != base.Ledger().Nodes() {
		t.Fatalf("recovered run noised %d nodes, uninterrupted %d", rec.Ledger().Nodes(), base.Ledger().Nodes())
	}
	if rec.Ledger().Spent() != base.Ledger().Spent() {
		t.Fatalf("ledger spend diverged: %+v vs %+v", rec.Ledger().Spent(), base.Ledger().Spent())
	}
	// The horizon is exactly exhausted on both.
	if _, err := rec.Release(NewSource(1)); !errors.Is(err, ErrEpochsExhausted) {
		t.Fatalf("past horizon: %v", err)
	}
}

// applyEpoch folds epoch e's deterministic delta batch into st.
func applyEpoch(t *testing.T, st *Stream, e int) {
	t.Helper()
	cells := []int{(e * 3) % 24, (e*5 + 1) % 24}
	vals := []float64{float64(e%4 + 1), 0.5 * float64(e%3)}
	if err := st.Apply(Delta{Cells: cells, Values: vals}); err != nil {
		t.Fatalf("apply epoch %d: %v", e, err)
	}
}

// TestRestoreStreamUpgradeRecipe pins the README's upgrade recipe for a
// range-plan StreamState saved by a version that exported summed-area
// artifacts: replacing Artifacts with a fresh OpenStream export over the
// saved Database restores the stream, continual ledger included, exactly as
// the current version would have exported it (integer counts, so the
// patched answers carry no drift).
func TestRestoreStreamUpgradeRecipe(t *testing.T) {
	p := GridPolicy(6)
	eng, err := Open(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eng.Prepare(RandomRangesKd([]int{6, 6}, 40, NewSource(5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.OpenStream(pl, make([]float64, p.K), StreamOptions{
		Continual: &BudgetContinual{Epsilon: 2, Epochs: 8, Window: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := st.Apply(Delta{Cells: []int{e * 7, 35 - e}, Values: []float64{float64(e + 1), 2}}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Release(NewSource(int64(e))); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	want, err := json.Marshal(st.ExportState())
	if err != nil {
		t.Fatal(err)
	}

	saved := st.ExportState()
	saved.Artifacts = make([]float64, len(saved.Artifacts)) // stale, same length
	fresh, err := eng.OpenStream(pl, saved.Database, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	saved.Artifacts = fresh.ExportState().Artifacts
	rec, err := eng.RestoreStream(pl, saved)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, err := json.Marshal(rec.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("upgraded state differs:\n got %s\nwant %s", got, want)
	}
}
