package blowfish

import (
	"fmt"
	"math"
	"sync"
)

// Budget is a cumulative (ε, δ) privacy allowance. The zero value means
// unlimited: the Accountant then only tracks spend without enforcing a cap.
type Budget struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// unlimited reports whether the budget enforces nothing.
func (b Budget) unlimited() bool { return b.Epsilon == 0 && b.Delta == 0 }

// validate rejects budgets that would silently disable enforcement: negative
// axes, NaN (which fails every comparison) and +Inf. The zero value — an
// unlimited budget — is valid.
func (b Budget) validate() error {
	if !(b.Epsilon >= 0) || !(b.Delta >= 0) ||
		math.IsInf(b.Epsilon, 1) || math.IsInf(b.Delta, 1) {
		return fmt.Errorf("blowfish: non-finite or negative budget (ε=%g, δ=%g): %w",
			b.Epsilon, b.Delta, ErrInvalidOptions)
	}
	return nil
}

// budgetSlack is the relative tolerance absorbing float accumulation error
// when comparing spend against the cap, so e.g. ten ε=0.1 releases fit
// exactly in a 1.0 budget. It scales with each axis's own budget — δ
// budgets live around 1e-6..1e-12, where any absolute slack would permit
// real overspend.
const budgetSlack = 1e-12

// Accountant tracks cumulative privacy spend under basic sequential
// composition: epsilons and deltas add. It is safe for concurrent use.
//
// Every Engine owns a default Accountant shared by its Plans, but
// accountants are not tied to engines: NewAccountant creates independent
// ledgers, and Plan.AnswerWith charges the accountant the caller passes, so
// one compiled Plan can serve many tenants with isolated budgets (the
// cmd/blowfishd serving daemon keeps one Accountant per tenant).
type Accountant struct {
	mu       sync.Mutex
	budget   Budget
	spent    Budget
	releases int64
}

// NewAccountant returns an accountant enforcing the given cumulative (ε, δ)
// budget. The zero Budget means unlimited: spend is tracked, never enforced.
func NewAccountant(b Budget) (*Accountant, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	return &Accountant{budget: b}, nil
}

// newAccountant is NewAccountant for budgets already validated.
func newAccountant(b Budget) *Accountant { return &Accountant{budget: b} }

// Budget returns the configured allowance (zero value = unlimited).
func (a *Accountant) Budget() Budget { return a.budget }

// Spent returns the cumulative (ε, δ) charged so far.
func (a *Accountant) Spent() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the allowance left, clamped at zero. The second result
// is false when the budget is unlimited (the first is then meaningless).
func (a *Accountant) Remaining() (Budget, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget.unlimited() {
		return Budget{}, false
	}
	r := Budget{Epsilon: a.budget.Epsilon - a.spent.Epsilon, Delta: a.budget.Delta - a.spent.Delta}
	if r.Epsilon < 0 {
		r.Epsilon = 0
	}
	if r.Delta < 0 {
		r.Delta = 0
	}
	return r, true
}

// Releases returns the number of charged releases.
func (a *Accountant) Releases() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.releases
}

// Charge atomically reserves `releases` releases of `per` each
// (all-or-nothing), returning ErrBudgetExhausted — without recording any
// spend — if the reservation would exceed the budget. It is the admission
// hook for serving layers that account before computing: charge the tenant's
// accountant first, then run the release uncharged via Plan.AnswerWith with
// a nil accountant (Plan.Cost reports what one release of a plan costs).
// A release of per.Epsilon <= 0 produces no noise, so a finite-budget
// accountant rejects it outright rather than pricing it at zero.
func (a *Accountant) Charge(per Budget, releases int) error {
	if releases < 0 {
		return fmt.Errorf("blowfish: negative release count %d: %w", releases, ErrInvalidOptions)
	}
	return a.charge(per.Epsilon, per.Delta, releases)
}

// Admit prices `releases` releases of `per` each against the current ledger
// with the same rule Charge applies, but commits nothing: it returns the
// error Charge would return right now. Serving layers that compute before
// they charge call it first, so a request the ledger would refuse is
// rejected before any noise is drawn. A concurrent charge can still take
// the remaining budget between Admit and the charge that follows it.
func (a *Accountant) Admit(per Budget, releases int) error {
	if releases < 0 {
		return fmt.Errorf("blowfish: negative release count %d: %w", releases, ErrInvalidOptions)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err := a.admitLocked(per.Epsilon, per.Delta, releases)
	return err
}

// BudgetContinual configures the continual-release (binary-tree counting)
// budget mode: Epsilon and Delta bound any single record's lifetime privacy
// loss across every release the stream ever makes, Epochs is the horizon the
// composition is planned for, and Window caps how many trailing epochs one
// release may aggregate. The mechanism splits Epsilon (and Delta) uniformly
// over the L = 1 + ceil(log2(Epochs)) dyadic levels; each epoch's records
// enter at most one node per level, so per-record spend after N epochs is
// the closed form (1 + floor(log2 N)) · (Epsilon/L) ≤ Epsilon.
type BudgetContinual struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	Epochs  int     `json:"epochs"`
	Window  int     `json:"window"`
}

func (b BudgetContinual) validate() error {
	if err := (Budget{Epsilon: b.Epsilon, Delta: b.Delta}).validate(); err != nil {
		return err
	}
	if b.Epsilon <= 0 {
		return fmt.Errorf("blowfish: continual budget needs Epsilon > 0, got %g: %w", b.Epsilon, ErrInvalidOptions)
	}
	if b.Epochs < 1 {
		return fmt.Errorf("blowfish: continual budget needs Epochs >= 1, got %d: %w", b.Epochs, ErrInvalidOptions)
	}
	if b.Window < 1 || b.Window > b.Epochs {
		return fmt.Errorf("blowfish: continual Window %d outside [1, Epochs=%d]: %w", b.Window, b.Epochs, ErrInvalidOptions)
	}
	return nil
}

// levels returns L, the number of dyadic levels the budget splits over.
func (b BudgetContinual) levels() int {
	l := 1
	for span := 1; span < b.Epochs; span *= 2 {
		l++
	}
	return l
}

// ContinualAccountant is the ledger of a continual-release stream. Unlike
// the sequential Accountant, spend does not add per release: a record's
// loss is the number of noised tree nodes containing it times the per-node
// budget, so Spent reports the worst case over records —
// maxLevels · (Epsilon/L, δ_node) with maxLevels = 1 + floor(log2 N) after
// N epochs — as an exact product, never a float accumulation.
type ContinualAccountant struct {
	mu        sync.Mutex
	cfg       BudgetContinual
	lv        int
	deltaNode float64
	epochs    int
	nodes     int64
	maxLevels int
}

// NewContinualAccountant returns the ledger for one continual-release
// configuration. The per-node δ defaults to Delta/L; streams prepared with
// a Gaussian plan lower it to the plan's actual per-release δ.
func NewContinualAccountant(cfg BudgetContinual) (*ContinualAccountant, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lv := cfg.levels()
	return &ContinualAccountant{cfg: cfg, lv: lv, deltaNode: cfg.Delta / float64(lv)}, nil
}

// Config returns the budget the accountant was created with.
func (a *ContinualAccountant) Config() BudgetContinual { return a.cfg }

// Levels returns L, the number of dyadic levels the budget splits over.
func (a *ContinualAccountant) Levels() int { return a.lv }

// NodeBudget returns the (ε, δ) each noised tree node is released at.
func (a *ContinualAccountant) NodeBudget() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Budget{Epsilon: a.cfg.Epsilon / float64(a.lv), Delta: a.deltaNode}
}

// Epochs returns how many epochs have been released.
func (a *ContinualAccountant) Epochs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epochs
}

// Nodes returns how many tree nodes have been noised.
func (a *ContinualAccountant) Nodes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodes
}

// Spent returns the worst-case per-record (ε, δ) loss so far: the closed
// form maxLevels · NodeBudget, computed as a product so property tests can
// assert exact equality.
func (a *ContinualAccountant) Spent() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Budget{
		Epsilon: float64(a.maxLevels) * (a.cfg.Epsilon / float64(a.lv)),
		Delta:   float64(a.maxLevels) * a.deltaNode,
	}
}

// Remaining returns the allowance left for the worst-case record, clamped
// at zero.
func (a *ContinualAccountant) Remaining() Budget {
	s := a.Spent()
	r := Budget{Epsilon: a.cfg.Epsilon - s.Epsilon, Delta: a.cfg.Delta - s.Delta}
	if r.Epsilon < 0 {
		r.Epsilon = 0
	}
	if r.Delta < 0 {
		r.Delta = 0
	}
	return r
}

// beginEpoch admits the next epoch, rejecting with ErrEpochsExhausted —
// before any noise is drawn — once the planned horizon is used up. It
// returns the 1-indexed epoch number and updates the worst-case level
// count: epoch 1's records sit in one completed node per level l with
// 2^l <= N, i.e. 1 + floor(log2 N) nodes after N epochs.
func (a *ContinualAccountant) beginEpoch() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.epochs >= a.cfg.Epochs {
		return 0, fmt.Errorf("blowfish: epoch %d past continual horizon of %d: %w",
			a.epochs+1, a.cfg.Epochs, ErrEpochsExhausted)
	}
	a.epochs++
	lv := 1
	for span := 2; span <= a.epochs; span *= 2 {
		lv++
	}
	if lv > a.maxLevels {
		a.maxLevels = lv
	}
	return a.epochs, nil
}

// noteNodes records n freshly noised tree nodes.
func (a *ContinualAccountant) noteNodes(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nodes += int64(n)
}

// charge atomically reserves (eps, delta) for one release, or n releases at
// once for batches (all-or-nothing). eps <= 0 disables noise, so under a
// finite budget it is rejected outright rather than priced at zero.
func (a *Accountant) charge(eps, delta float64, n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	next, err := a.admitLocked(eps, delta, n)
	if err != nil {
		return err
	}
	a.spent = next.Spent
	a.releases = next.Releases
	return nil
}

// admitLocked prices a charge of n releases of (eps, delta) each against
// the current ledger without committing anything, returning the full
// post-charge state. It is the single admission point shared by charge,
// ChargeLogged and Admit, so the pre-check, the in-memory and the
// write-ahead paths cannot drift. The caller holds a.mu.
func (a *Accountant) admitLocked(eps, delta float64, n int) (AccountantState, error) {
	// A non-finite charge would poison the running totals (NaN compares
	// false against everything, silently disabling enforcement forever).
	if math.IsNaN(eps) || math.IsInf(eps, 0) || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return AccountantState{}, fmt.Errorf("blowfish: non-finite privacy charge (ε=%g, δ=%g): %w", eps, delta, ErrInvalidOptions)
	}
	next := AccountantState{Budget: a.budget, Spent: a.spent, Releases: a.releases}
	if a.budget.unlimited() {
		if eps > 0 {
			next.Spent.Epsilon += eps * float64(n)
			next.Spent.Delta += delta * float64(n)
		}
		next.Releases += int64(n)
		return next, nil
	}
	if eps <= 0 {
		return AccountantState{}, fmt.Errorf("blowfish: eps=%g releases no noise and cannot be afforded by a finite budget: %w", eps, ErrBudgetExhausted)
	}
	next.Spent.Epsilon += eps * float64(n)
	next.Spent.Delta += delta * float64(n)
	if next.Spent.Epsilon > a.budget.Epsilon*(1+budgetSlack) || next.Spent.Delta > a.budget.Delta*(1+budgetSlack) {
		return AccountantState{}, fmt.Errorf("blowfish: release of (ε=%g, δ=%g)×%d exceeds remaining budget (spent ε=%g of %g, δ=%g of %g): %w",
			eps, delta, n, a.spent.Epsilon, a.budget.Epsilon, a.spent.Delta, a.budget.Delta, ErrBudgetExhausted)
	}
	next.Releases += int64(n)
	return next, nil
}
