package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	blowfish "github.com/privacylab/blowfish"
)

// postPath drives an arbitrary endpoint and returns the raw recorder.
func postPath(t *testing.T, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

func updateBody(t *testing.T, tenant string, k int, base []float64, cells []int, values []float64) []byte {
	t.Helper()
	return mustJSON(UpdateRequest{
		Tenant:   tenant,
		Policy:   PolicySpec{Kind: "line", K: k},
		Workload: WorkloadSpec{Kind: "histogram"},
		Base:     base,
		Delta:    DeltaSpec{Cells: cells, Values: values},
	})
}

func streamAnswerBody(t *testing.T, tenant string, k int, eps float64) []byte {
	t.Helper()
	return mustJSON(AnswerRequest{
		Tenant:   tenant,
		Policy:   PolicySpec{Kind: "line", K: k},
		Workload: WorkloadSpec{Kind: "histogram"},
		Epsilon:  eps,
		Stream:   true,
	})
}

// TestUpdateAndStreamAnswer is the streaming round-trip: updates feed the
// maintained stream through the plan cache, and stream answers reflect every
// applied delta (noiselessly assertable at eps=0 with a histogram workload).
func TestUpdateAndStreamAnswer(t *testing.T) {
	s := New(Config{Seed: 5})
	const k = 8

	// Answering before any update must not invent a stream.
	rec := postPath(t, s, "/v1/answer", streamAnswerBody(t, "alice", k, 0))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("answer before update: %d (%s)", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "no_stream" {
		t.Fatalf("want no_stream, got %q (err %v)", rec.Body.String(), err)
	}

	// First update seeds the stream with a base and applies one delta.
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	rec = postPath(t, s, "/v1/update", updateBody(t, "alice", k, base, []int{2}, []float64{10}))
	if rec.Code != http.StatusOK {
		t.Fatalf("first update: %d (%s)", rec.Code, rec.Body.String())
	}
	var ur UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if !ur.Created || ur.Applied != 1 {
		t.Fatalf("first update response %+v, want created with 1 applied", ur)
	}

	// A second update rides the existing stream.
	rec = postPath(t, s, "/v1/update", updateBody(t, "alice", k, nil, []int{0, 2}, []float64{-1, 0.5}))
	if rec.Code != http.StatusOK {
		t.Fatalf("second update: %d (%s)", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Created || ur.Applied != 2 {
		t.Fatalf("second update response %+v, want existing stream with 2 applied", ur)
	}
	if ur.Patches+ur.Recomputes == 0 {
		t.Fatalf("update response %+v reports no refresh work", ur)
	}

	// The noiseless stream answer is base plus every delta.
	want := []float64{0, 2, 13.5, 4, 5, 6, 7, 8}
	rec = postPath(t, s, "/v1/answer", streamAnswerBody(t, "alice", k, 0))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream answer: %d (%s)", rec.Code, rec.Body.String())
	}
	var ar AnswerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if ar.Answers[i] != want[i] {
			t.Fatalf("stream answers %v, want %v", ar.Answers, want)
		}
	}
	if ar.Budget.Releases != 1 {
		t.Fatalf("stream answer must charge the tenant ledger, got %+v", ar.Budget)
	}

	// Streams are scoped per tenant: bob has none for the same plan.
	rec = postPath(t, s, "/v1/answer", streamAnswerBody(t, "bob", k, 0))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("foreign tenant stream answer: %d", rec.Code)
	}

	st := s.Stats()
	if st.Updates != 2 || st.StreamAnswers != 1 || st.Streams != 1 {
		t.Fatalf("stats %+v, want 2 updates / 1 stream answer / 1 stream", st)
	}
}

// TestUpdateValidation pins the rejection paths: every malformed update
// leaves the stream untouched and maps through the shared error schema.
func TestUpdateValidation(t *testing.T) {
	s := New(Config{Seed: 5})
	const k = 4
	check := func(name string, path string, body []byte, status int, code string) {
		t.Helper()
		rec := postPath(t, s, path, body)
		if rec.Code != status {
			t.Fatalf("%s: status %d, want %d (%s)", name, rec.Code, status, rec.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: undecodable error body: %v", name, err)
		}
		if er.Code != code {
			t.Fatalf("%s: code %q, want %q", name, er.Code, code)
		}
	}
	check("bad json", "/v1/update", []byte("{nope"), http.StatusBadRequest, "bad_json")
	check("cell out of domain", "/v1/update",
		updateBody(t, "a", k, nil, []int{9}, []float64{1}), http.StatusBadRequest, "domain_mismatch")
	check("cells/values mismatch", "/v1/update",
		updateBody(t, "a", k, nil, []int{1, 2}, []float64{1}), http.StatusBadRequest, "invalid_request")
	check("base size mismatch", "/v1/update",
		updateBody(t, "a", k, []float64{1, 2}, nil, nil), http.StatusBadRequest, "domain_mismatch")
	check("unknown policy", "/v1/update",
		mustJSON(UpdateRequest{Policy: PolicySpec{Kind: "mystery", K: k},
			Workload: WorkloadSpec{Kind: "histogram"}}), http.StatusBadRequest, "invalid_request")

	// None of the rejections above created a stream.
	if st := s.Stats(); st.Streams != 0 || st.Updates != 0 {
		t.Fatalf("stats %+v, want no streams and no updates after rejections", st)
	}

	// Seed a stream, then re-seeding it is a conflict.
	if rec := postPath(t, s, "/v1/update", updateBody(t, "a", k, make([]float64, k), nil, nil)); rec.Code != http.StatusOK {
		t.Fatalf("seeding update: %d (%s)", rec.Code, rec.Body.String())
	}
	check("base on existing stream", "/v1/update",
		updateBody(t, "a", k, make([]float64, k), nil, nil), http.StatusConflict, "stream_exists")

	// A stream answer must not also carry a database.
	body := mustJSON(AnswerRequest{Tenant: "a", Policy: PolicySpec{Kind: "line", K: k},
		Workload: WorkloadSpec{Kind: "histogram"}, Stream: true, X: make([]float64, k)})
	check("stream answer with x", "/v1/answer", body, http.StatusBadRequest, "invalid_request")
}

// TestTenantRateLimit drives the token bucket through a fake clock: burst
// admits, the empty bucket rejects with 429 "rate_limited" (NOT
// "budget_exhausted" — clients must be able to tell "slow down" from "the
// budget is gone"), refill readmits, and tenants are limited independently.
func TestTenantRateLimit(t *testing.T) {
	s := New(Config{Seed: 5, TenantQPS: 1, TenantBurst: 2})
	now := time.Unix(1000, 0)
	s.limiter.now = func() time.Time { return now }

	x := make([]float64, 4)
	code := func(tenant string) (int, string) {
		rec := postPath(t, s, "/v1/answer", answerBody(t, tenant, 4, 0, x))
		var er ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &er)
		return rec.Code, er.Code
	}
	for i := 0; i < 2; i++ {
		if c, _ := code("alice"); c != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, c)
		}
	}
	c, ec := code("alice")
	if c != http.StatusTooManyRequests || ec != "rate_limited" {
		t.Fatalf("over-rate request: %d %q, want 429 rate_limited", c, ec)
	}
	// Other tenants have their own bucket.
	if c, _ := code("bob"); c != http.StatusOK {
		t.Fatalf("independent tenant: %d", c)
	}
	// Updates share the same limit.
	if rec := postPath(t, s, "/v1/update", updateBody(t, "alice", 4, nil, nil, nil)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("rate-limited update: %d", rec.Code)
	}
	// One second refills one token.
	now = now.Add(time.Second)
	if c, _ := code("alice"); c != http.StatusOK {
		t.Fatalf("post-refill request: %d", c)
	}
	if c, ec := code("alice"); c != http.StatusTooManyRequests || ec != "rate_limited" {
		t.Fatalf("second post-refill request: %d %q", c, ec)
	}
	if got := s.Stats().RejectedRate; got != 3 {
		t.Fatalf("rejected_rate = %d, want 3", got)
	}
}

// TestRateLimitVsBudgetCodes runs a tenant into its privacy budget under an
// active rate limiter and checks the two 429 causes stay distinguishable.
func TestRateLimitVsBudgetCodes(t *testing.T) {
	s := New(Config{Seed: 5, TenantQPS: 1000, TenantBurst: 1000,
		TenantBudget: blowfish.Budget{Epsilon: 0.3}})
	x := make([]float64, 4)
	if rec := postPath(t, s, "/v1/answer", answerBody(t, "a", 4, 0.3, x)); rec.Code != http.StatusOK {
		t.Fatalf("within budget: %d (%s)", rec.Code, rec.Body.String())
	}
	rec := postPath(t, s, "/v1/answer", answerBody(t, "a", 4, 0.3, x))
	var er ErrorResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &er)
	if rec.Code != http.StatusTooManyRequests || er.Code != "budget_exhausted" {
		t.Fatalf("exhausted budget under rate limiter: %d %q", rec.Code, er.Code)
	}
}

// TestRateLimiterDefaults pins the constructor edge cases.
func TestRateLimiterDefaults(t *testing.T) {
	if rl := newRateLimiter(0, 5, nil); rl != nil {
		t.Fatal("qps=0 must disable rate limiting")
	}
	var disabled *rateLimiter
	if ok, _ := disabled.allow("anyone"); !ok {
		t.Fatal("nil limiter must admit everything")
	}
	if rl := newRateLimiter(2.5, 0, nil); rl.burst != 3 {
		t.Fatalf("default burst %g, want ceil(qps)=3", rl.burst)
	}
	if rl := newRateLimiter(0.5, 0, nil); rl.burst != 1 {
		t.Fatalf("default burst %g, want at least 1", rl.burst)
	}
}

// rectSum is the exact sum of x over an inclusive box on a row-major grid,
// walked cell by cell.
func rectSum(dims []int, x []float64, lo, hi []int) float64 {
	var s float64
	coord := make([]int, len(dims))
	for cell := range x {
		rem := cell
		for t := len(dims) - 1; t >= 0; t-- {
			coord[t] = rem % dims[t]
			rem /= dims[t]
		}
		inside := true
		for t, c := range coord {
			if c < lo[t] || c > hi[t] {
				inside = false
			}
		}
		if inside {
			s += x[cell]
		}
	}
	return s
}

// TestServedRectsCarryPolicyDims checks that a served "rects" workload is
// built on the policy's grid: RangeKd.Coeff and Eval must match the exact
// rectangle sums, not treat every cell as inside.
func TestServedRectsCarryPolicyDims(t *testing.T) {
	cases := []struct {
		pol   PolicySpec
		dims  []int
		rects []RectSpec
	}{
		{PolicySpec{Kind: "grid", K: 5}, []int{5, 5},
			[]RectSpec{{Lo: []int{1, 2}, Hi: []int{3, 2}}, {Lo: []int{0, 0}, Hi: []int{4, 4}}, {Lo: []int{4, 1}, Hi: []int{4, 3}}}},
		{PolicySpec{Kind: "distance", Dims: []int{3, 4, 2}, Theta: 1}, []int{3, 4, 2},
			[]RectSpec{{Lo: []int{0, 1, 1}, Hi: []int{2, 2, 1}}, {Lo: []int{1, 0, 0}, Hi: []int{1, 3, 1}}}},
		{PolicySpec{Kind: "line", K: 9}, []int{9}, []RectSpec{{Lo: []int{2}, Hi: []int{6}}}},
	}
	for _, tc := range cases {
		p, err := tc.pol.build()
		if err != nil {
			t.Fatal(err)
		}
		w, err := WorkloadSpec{Kind: "rects", Rects: tc.rects}.build(p)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, p.K)
		for i := range x {
			x[i] = float64(i*i%7 + 1)
		}
		for i, q := range w.Queries {
			r := tc.rects[i]
			for cell := range x {
				unit := make([]float64, p.K)
				unit[cell] = 1
				if got, want := q.Coeff(cell), rectSum(tc.dims, unit, r.Lo, r.Hi); got != want {
					t.Fatalf("%s rect %d: Coeff(%d) = %v, want %v", tc.pol.Kind, i, cell, got, want)
				}
			}
			if got, want := q.Eval(x), rectSum(tc.dims, x, r.Lo, r.Hi); got != want {
				t.Fatalf("%s rect %d: Eval = %v, want %v", tc.pol.Kind, i, got, want)
			}
		}
	}
	// A rectangle whose arity or extent disagrees with the policy is refused.
	p, err := PolicySpec{Kind: "grid", K: 4}.build()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []RectSpec{{Lo: []int{0}, Hi: []int{1}}, {Lo: []int{0, 0}, Hi: []int{4, 1}}, {Lo: []int{2, 0}, Hi: []int{1, 1}}} {
		if _, err := (WorkloadSpec{Kind: "rects", Rects: []RectSpec{r}}).build(p); err == nil {
			t.Fatalf("rect %v on a 4x4 grid: want an error", r)
		}
	}
}

// TestStreamRectsMatchExactSums drives a grid rectangle stream over the wire,
// monolithic and with a forced 2-row shard block: after update batches with
// repeated cells (patched) and a full-domain batch (dense recompute), every
// ε=0 stream answer must equal the exact rectangle sums of base plus deltas.
func TestStreamRectsMatchExactSums(t *testing.T) {
	const side = 8
	dims := []int{side, side}
	pol := PolicySpec{Kind: "grid", K: side}
	rects := []RectSpec{
		{Lo: []int{0, 0}, Hi: []int{7, 7}}, {Lo: []int{1, 2}, Hi: []int{5, 6}},
		{Lo: []int{3, 3}, Hi: []int{3, 3}}, {Lo: []int{0, 4}, Hi: []int{6, 4}},
		{Lo: []int{6, 0}, Hi: []int{7, 3}}, {Lo: []int{2, 1}, Hi: []int{4, 7}},
	}
	wl := WorkloadSpec{Kind: "rects", Rects: rects}
	for _, shardBlock := range []int{-1, 2 * side} {
		s := New(Config{Seed: 9})
		ekey, err := engineKey(pol)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.engines.getOrCreate(ekey, func() (*blowfish.Engine, error) {
			return blowfish.Open(blowfish.GridPolicy(side), blowfish.EngineOptions{ShardBlock: shardBlock})
		}); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, side*side)
		for i := range x {
			x[i] = float64(i % 5)
		}
		all := make([]int, len(x))
		ones := make([]float64, len(x))
		for i := range all {
			all[i], ones[i] = i, 1
		}
		batches := []DeltaSpec{
			{Cells: []int{27, 27, 0}, Values: []float64{2, 3, -1}},
			{Cells: []int{63, 9, 63, 27}, Values: []float64{1, 4, 5, -2}},
			{Cells: all, Values: ones},
			{Cells: []int{36, 36}, Values: []float64{7, -3}},
		}
		base := append([]float64(nil), x...)
		var ur UpdateResponse
		for b, d := range batches {
			req := UpdateRequest{Tenant: "t", Policy: pol, Workload: wl, Delta: d}
			if b == 0 {
				req.Base = base
			}
			rec := postPath(t, s, "/v1/update", mustJSON(req))
			if rec.Code != http.StatusOK {
				t.Fatalf("shard block %d update %d: %d (%s)", shardBlock, b, rec.Code, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
				t.Fatal(err)
			}
			for i, c := range d.Cells {
				x[c] += d.Values[i]
			}
			rec = postPath(t, s, "/v1/answer", mustJSON(AnswerRequest{Tenant: "t", Policy: pol, Workload: wl, Stream: true}))
			if rec.Code != http.StatusOK {
				t.Fatalf("shard block %d answer %d: %d (%s)", shardBlock, b, rec.Code, rec.Body.String())
			}
			var ar AnswerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
				t.Fatal(err)
			}
			for i, r := range rects {
				if want := rectSum(dims, x, r.Lo, r.Hi); ar.Answers[i] != want {
					t.Fatalf("shard block %d after update %d: answer[%d] = %v, want exact sum %v", shardBlock, b, i, ar.Answers[i], want)
				}
			}
		}
		if ur.Patches == 0 || ur.Recomputes == 0 {
			t.Fatalf("shard block %d: refresh counters %+v, want both patches and a dense recompute", shardBlock, ur)
		}
	}
}
