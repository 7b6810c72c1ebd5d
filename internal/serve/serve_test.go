package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	blowfish "github.com/privacylab/blowfish"
)

// answerBody builds the canonical test request: a line policy with a
// histogram workload, so noiseless answers equal the database exactly.
func answerBody(t *testing.T, tenant string, k int, eps float64, x []float64) []byte {
	t.Helper()
	raw, err := json.Marshal(AnswerRequest{
		Tenant:   tenant,
		Policy:   PolicySpec{Kind: "line", K: k},
		Workload: WorkloadSpec{Kind: "histogram"},
		Epsilon:  eps,
		X:        x,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// post drives the handler directly (no TCP) and decodes the response.
func post(t *testing.T, s *Server, body []byte) (int, AnswerResponse, ErrorResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var ok AnswerResponse
	var bad ErrorResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
			t.Fatalf("decoding 200 body: %v", err)
		}
	} else if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil {
		t.Fatalf("decoding %d body: %v", rec.Code, err)
	}
	return rec.Code, ok, bad
}

func TestHealthAndAnswerRoundTrip(t *testing.T) {
	s := New(Config{Seed: 1})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	// Unlimited tenant budget admits eps=0 (noiseless) releases, so the
	// round-trip is exact and assertable.
	x := []float64{3, 1, 4, 1}
	code, res, _ := post(t, s, answerBody(t, "alice", 4, 0, x))
	if code != http.StatusOK {
		t.Fatalf("answer: status %d", code)
	}
	if res.Algorithm != "blowfish(tree)" {
		t.Fatalf("algorithm %q", res.Algorithm)
	}
	for i := range x {
		if res.Answers[i] != x[i] {
			t.Fatalf("noiseless answers %v != db %v", res.Answers, x)
		}
	}
	if res.Budget.Releases != 1 || res.Budget.Limited {
		t.Fatalf("budget info %+v, want 1 unlimited release", res.Budget)
	}
	// Second identical request hits the plan cache.
	if code, _, _ := post(t, s, answerBody(t, "alice", 4, 0, x)); code != http.StatusOK {
		t.Fatalf("second answer: %d", code)
	}
	st := s.Stats()
	if st.PlanCacheHits < 1 || st.PlanCacheMisses != 1 {
		t.Fatalf("cache stats %+v, want 1 miss then hits", st)
	}
}

func TestBudgetExhaustionReturns429(t *testing.T) {
	s := New(Config{Seed: 1, TenantBudget: blowfish.Budget{Epsilon: 0.5}})
	x := make([]float64, 4)
	if code, res, _ := post(t, s, answerBody(t, "alice", 4, 0.3, x)); code != http.StatusOK {
		t.Fatalf("first release: %d", code)
	} else if !res.Budget.Limited || math.Abs(*res.Budget.RemainingEpsilon-0.2) > 1e-12 {
		t.Fatalf("budget after first release: %+v", res.Budget)
	}
	code, _, bad := post(t, s, answerBody(t, "alice", 4, 0.3, x))
	if code != http.StatusTooManyRequests || bad.Code != "budget_exhausted" {
		t.Fatalf("over-budget: status %d code %q", code, bad.Code)
	}
	if bad.Budget == nil || math.Abs(bad.Budget.SpentEpsilon-0.3) > 1e-12 {
		t.Fatalf("429 must carry the ledger, got %+v", bad.Budget)
	}
	// The rejected release spent nothing and the tenant still has ε=0.2:
	// graceful degradation, not a wedged tenant.
	if code, _, _ := post(t, s, answerBody(t, "alice", 4, 0.2, x)); code != http.StatusOK {
		t.Fatalf("release within remainder: %d", code)
	}
	// Other tenants are unaffected.
	if code, _, _ := post(t, s, answerBody(t, "bob", 4, 0.3, x)); code != http.StatusOK {
		t.Fatalf("independent tenant: %d", code)
	}
	if got := s.Stats().RejectedBudget; got != 1 {
		t.Fatalf("rejected_budget = %d, want 1", got)
	}
}

// TestConcurrentMultiTenantLoad is the serving acceptance test: 8 tenants,
// each firing concurrent requests from several goroutines, with budgets
// enforced independently per tenant at the admission boundary. Run under
// -race this also exercises the charge race at the budget edge and the
// cross-tenant batch coalescer.
func TestConcurrentMultiTenantLoad(t *testing.T) {
	const (
		tenants    = 8
		perTenant  = 12 // requests per tenant
		eps        = 0.25
		budgetEps  = 1.0 // admits exactly 4 of the 12
		k          = 32
		wantOK     = 4
		goroutines = 4 // concurrent streams per tenant
	)
	s := New(Config{
		Seed:         7,
		TenantBudget: blowfish.Budget{Epsilon: budgetEps},
		BatchWindow:  500 * time.Microsecond,
		MaxBatch:     16,
	})
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i % 5)
	}
	var (
		mu        sync.Mutex
		okCount   = map[string]int{}
		rejCount  = map[string]int{}
		otherErrs []string
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		body := answerBody(t, tenant, k, eps, x)
		per := perTenant / goroutines
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < per; r++ {
					req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					mu.Lock()
					switch rec.Code {
					case http.StatusOK:
						okCount[tenant]++
					case http.StatusTooManyRequests:
						rejCount[tenant]++
					default:
						otherErrs = append(otherErrs, fmt.Sprintf("%s: %d %s", tenant, rec.Code, rec.Body.String()))
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if len(otherErrs) > 0 {
		t.Fatalf("unexpected responses: %v", otherErrs)
	}
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		if okCount[tenant] != wantOK {
			t.Errorf("%s: %d admitted, want exactly %d (budget %g / eps %g)",
				tenant, okCount[tenant], wantOK, budgetEps, eps)
		}
		if okCount[tenant]+rejCount[tenant] != perTenant {
			t.Errorf("%s: %d + %d responses, want %d (exactly one outcome per request)",
				tenant, okCount[tenant], rejCount[tenant], perTenant)
		}
		// The ledger agrees with the admission decisions bit-exactly.
		spent := s.Accountant(tenant).Spent()
		if math.Abs(spent.Epsilon-budgetEps) > 1e-9 {
			t.Errorf("%s: spent ε=%g, want %g", tenant, spent.Epsilon, budgetEps)
		}
	}
	st := s.Stats()
	if st.Answered != tenants*wantOK || st.RejectedBudget != tenants*(perTenant-wantOK) {
		t.Errorf("stats %+v, want %d answered / %d rejected", st, tenants*wantOK, tenants*(perTenant-wantOK))
	}
}

// TestBatchCoalescing holds a wide window open and checks that concurrent
// same-plan requests ride one AnswerBatch call.
func TestBatchCoalescing(t *testing.T) {
	const n = 8
	s := New(Config{Seed: 3, BatchWindow: 20 * time.Millisecond, MaxBatch: n})
	x := make([]float64, 16)
	body := answerBody(t, "alice", 16, 0.5, x)
	// Warm the plan cache so the batch window, not compile time, dominates.
	if code, _, _ := post(t, s, answerBody(t, "alice", 16, 0.5, x)); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	var wg sync.WaitGroup
	batched := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				var res AnswerResponse
				_ = json.Unmarshal(rec.Body.Bytes(), &res)
				batched[i] = res.Batched
			}
		}(i)
	}
	wg.Wait()
	max := 0
	for _, b := range batched {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Fatalf("no coalescing observed: batched sizes %v (max_batch stat %d)", batched, s.Stats().MaxBatch)
	}
	if st := s.Stats(); st.Batches >= st.BatchedReleases {
		t.Fatalf("stats %+v: batches should be fewer than batched releases", st)
	}
}

// TestBatchedDeadlineLeavesLedgerUnchanged: an unkeyed answer whose
// deadline expires while it waits in the batcher gets 504 and is never
// charged — its release was not delivered, so nothing was spent.
func TestBatchedDeadlineLeavesLedgerUnchanged(t *testing.T) {
	s := New(Config{Seed: 2, BatchWindow: 200 * time.Millisecond, MaxBatch: 64})
	x := make([]float64, 16)
	// Warm the plan cache (on another tenant) so compile time cannot eat
	// the deadline before the request reaches the batcher.
	if code, _, _ := post(t, s, answerBody(t, "warm", 16, 0.5, x)); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	body := mustJSON(AnswerRequest{
		Tenant:    "d",
		Policy:    PolicySpec{Kind: "line", K: 16},
		Workload:  WorkloadSpec{Kind: "histogram"},
		Epsilon:   0.5,
		X:         x,
		TimeoutMS: 20,
	})
	code, _, bad := post(t, s, body)
	if code != http.StatusGatewayTimeout || bad.Code != "deadline_exceeded" {
		t.Fatalf("deadline in the batcher: %d %q, want 504 deadline_exceeded", code, bad.Code)
	}
	if st := s.Accountant("d").ExportState(); st.Spent != (blowfish.Budget{}) || st.Releases != 0 {
		t.Fatalf("undelivered release was charged: %+v", st)
	}
	// Let the abandoned batch flush so no timer outlives the test.
	for deadline := time.Now().Add(2 * time.Second); s.Stats().Batches < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("abandoned batch never flushed")
		}
	}
}

// TestRejectedTenantDrawsNoNoise pins the pre-check on every answer path:
// an exhausted tenant's request is refused before it takes a noise stream
// from the daemon's source, so the tenants answered after it get exactly
// the answers a daemon that never saw the refused request would give.
func TestRejectedTenantDrawsNoNoise(t *testing.T) {
	const k = 8
	budget := blowfish.Budget{Epsilon: 1}
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, keyed := range []bool{false, true} {
		for _, stream := range []bool{false, true} {
			t.Run(fmt.Sprintf("keyed=%v/stream=%v", keyed, stream), func(t *testing.T) {
				answer := func(s *Server, tenant string) *httptest.ResponseRecorder {
					body := answerBody(t, tenant, k, 0.5, x)
					if stream {
						body = streamAnswerBody(t, tenant, k, 0.5)
					}
					key := ""
					if keyed {
						key = "key-" + tenant
					}
					return postKeyed(t, s, "/v1/answer", key, body)
				}
				serve := func(tenants ...string) (*Server, map[string]*httptest.ResponseRecorder) {
					s := New(Config{Seed: 11, TenantBudget: budget})
					if stream {
						for _, tenant := range tenants {
							if rec := postPath(t, s, "/v1/update", updateBody(t, tenant, k, x, nil, nil)); rec.Code != http.StatusOK {
								t.Fatalf("opening %s's stream: %d %s", tenant, rec.Code, rec.Body.String())
							}
						}
					}
					exhausted := blowfish.AccountantState{Budget: budget, Spent: budget, Releases: 2}
					if err := s.Accountant("B").RestoreState(exhausted); err != nil {
						t.Fatal(err)
					}
					out := map[string]*httptest.ResponseRecorder{}
					for _, tenant := range tenants {
						out[tenant] = answer(s, tenant)
					}
					return s, out
				}
				s, got := serve("A", "B", "C")
				_, want := serve("A", "C")
				if got["B"].Code != http.StatusTooManyRequests || errCode(t, got["B"].Body.Bytes()) != "budget_exhausted" {
					t.Fatalf("exhausted tenant: %d %s", got["B"].Code, got["B"].Body.String())
				}
				if st := s.Accountant("B").ExportState(); st.Spent != budget || st.Releases != 2 {
					t.Fatalf("refused release moved B's ledger: %+v", st)
				}
				for _, tenant := range []string{"A", "C"} {
					if got[tenant].Code != http.StatusOK {
						t.Fatalf("%s: %d %s", tenant, got[tenant].Code, got[tenant].Body.String())
					}
					var g, w AnswerResponse
					if err := json.Unmarshal(got[tenant].Body.Bytes(), &g); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(want[tenant].Body.Bytes(), &w); err != nil {
						t.Fatal(err)
					}
					for i := range w.Answers {
						if g.Answers[i] != w.Answers[i] {
							t.Fatalf("%s's answers %v differ from a daemon that never saw B: %v", tenant, g.Answers, w.Answers)
						}
					}
				}
			})
		}
	}
}

// TestErrorMapping pins the typed-error → HTTP status table.
func TestErrorMapping(t *testing.T) {
	s := New(Config{Seed: 1})
	k4 := make([]float64, 4)
	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"bad json", []byte("{nope"), http.StatusBadRequest, "bad_json"},
		{"unknown policy kind",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "mystery", K: 4},
				Workload: WorkloadSpec{Kind: "histogram"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"unknown workload kind",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "mystery"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"bad estimator",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "histogram"},
				Options:  OptionsSpec{Estimator: "psychic"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"gaussian without delta",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "histogram"},
				Options:  OptionsSpec{Estimator: "gaussian"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"domain mismatch",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 8},
				Workload: WorkloadSpec{Kind: "histogram"}, X: k4}),
			http.StatusBadRequest, "domain_mismatch"},
		{"range out of domain",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "ranges", Ranges: [][2]int{{0, 9}}}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: undecodable error body: %v", tc.name, err)
			continue
		}
		if er.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, er.Code, tc.code)
		}
	}
	// Disconnected policies map to 422.
	body := mustJSON(AnswerRequest{
		Policy:   PolicySpec{Kind: "distance", Dims: []int{2, 2}, Theta: 1},
		Workload: WorkloadSpec{Kind: "histogram"},
		X:        k4,
	})
	req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	// A θ=1 distance policy over a 2×2 grid is connected, so this one
	// should serve; use a sensitive-attribute-like spec via the library to
	// confirm statusFor directly instead.
	if rec.Code != http.StatusOK {
		t.Errorf("connected distance policy: %d (%s)", rec.Code, rec.Body.String())
	}
	if status, code := statusFor(fmt.Errorf("wrapped: %w", blowfish.ErrDisconnectedPolicy)); status != http.StatusUnprocessableEntity || code != "disconnected_policy" {
		t.Errorf("disconnected mapping: %d %q", status, code)
	}
	if status, code := statusFor(fmt.Errorf("wrapped: %w", blowfish.ErrBudgetExhausted)); status != http.StatusTooManyRequests || code != "budget_exhausted" {
		t.Errorf("budget mapping: %d %q", status, code)
	}
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestPlanCacheLRUEviction fills a 2-entry cache with 3 plans.
func TestPlanCacheLRUEviction(t *testing.T) {
	s := New(Config{Seed: 1, PlanCacheSize: 2})
	for _, k := range []int{4, 8, 16} {
		x := make([]float64, k)
		if code, _, _ := post(t, s, answerBody(t, "a", k, 0, x)); code != http.StatusOK {
			t.Fatalf("k=%d: %d", k, code)
		}
	}
	st := s.Stats()
	if st.PlanEvictions < 1 {
		t.Fatalf("stats %+v: expected at least one eviction from a 2-entry cache", st)
	}
	if st.PlanCacheSize > 2 {
		t.Fatalf("cache size %d exceeds cap 2", st.PlanCacheSize)
	}
	// Re-requesting the freshest plan is still a hit.
	hits := st.PlanCacheHits
	if code, _, _ := post(t, s, answerBody(t, "a", 16, 0, make([]float64, 16))); code != http.StatusOK {
		t.Fatal("rerequest failed")
	}
	if got := s.Stats().PlanCacheHits; got != hits+1 {
		t.Fatalf("hits %d, want %d", got, hits+1)
	}
}

// TestPanicRecovery: a panicking handler degrades to a 500 response and the
// server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{Seed: 1})
	s.mux.HandleFunc("GET /v1/explode", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/explode", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status %d", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "panic" {
		t.Fatalf("panic body %q (err %v)", rec.Body.String(), err)
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("panics stat %d", s.Stats().Panics)
	}
	// Still serving.
	if code, _, _ := post(t, s, answerBody(t, "a", 4, 0, make([]float64, 4))); code != http.StatusOK {
		t.Fatalf("post-panic answer: %d", code)
	}
}

// TestDeterministicSeed: a fixed daemon seed and a single request stream
// make noised answers reproducible across servers.
func TestDeterministicSeed(t *testing.T) {
	run := func() []float64 {
		s := New(Config{Seed: 42})
		_, res, _ := post(t, s, answerBody(t, "a", 8, 1.0, make([]float64, 8)))
		return res.Answers
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}
