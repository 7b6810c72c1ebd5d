package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzAnswerWire throws arbitrary bytes at the daemon's JSON decoding and
// spec-construction path. The contract under fuzz: malformed requests come
// back as structured 4xx errors and nothing ever panics — the recover
// barrier turning a panic into a 500 counts as a failure here, not a save.
// Resource caps below keep the fuzzer exploring the validation surface
// instead of compiling giant (legitimate) strategies.
func FuzzAnswerWire(f *testing.F) {
	f.Add([]byte(`{"policy":{"kind":"line","k":8},"workload":{"kind":"histogram"},"epsilon":0.5,"x":[0,0,0,0,0,0,0,0]}`), "")
	f.Add([]byte(`{"policy":{"kind":"grid","k":4},"workload":{"kind":"rects","rects":[{"lo":[0,0],"hi":[1,1]}]},"x":[]}`), "")
	f.Add([]byte(`{"policy":{"kind":"distance","dims":[3,3],"theta":2},"workload":{"kind":"histogram"}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":-1}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"ranges","ranges":[[2,99]]}}`), "")
	f.Add([]byte(`{"options":{"estimator":"psychic"}}`), "")
	f.Add([]byte("{\"tenant\":\"\\u0000\",\"stream\":true}"), "")
	f.Add([]byte(`{nope`), "")
	f.Add([]byte(`[]`), "")
	f.Add([]byte(``), "")
	// Idempotency and deadline surface: keyed requests (fresh, replayed,
	// oversized key) and timeout_ms values (tiny, negative, absurd).
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"epsilon":0.5,"x":[0,0,0,0]}`), "retry-1")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[0,0,0,0],"timeout_ms":1}`), "retry-1")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[0,0,0,0],"timeout_ms":-7}`), "k")
	f.Add([]byte(`{"timeout_ms":9223372036854775807}`), strings.Repeat("K", 300))
	f.Add([]byte(`{"stream":true,"timeout_ms":5}`), "\x00")

	srv := New(Config{Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte, ikey string) {
		// Cap the cost of well-formed requests: the target is the decoding
		// and validation surface, not strategy-compile throughput.
		var req AnswerRequest
		if err := json.Unmarshal(data, &req); err == nil {
			if req.Policy.K > 64 || req.Policy.Theta > 64 || req.Options.Theta > 64 {
				t.Skip("domain too large for fuzzing")
			}
			vol := 1
			for _, d := range req.Policy.Dims {
				if d > 64 {
					t.Skip("dimension too large for fuzzing")
				}
				if d > 0 {
					vol *= d
				}
			}
			if len(req.Policy.Dims) > 4 || vol > 4096 {
				t.Skip("volume too large for fuzzing")
			}
			if len(req.X) > 8192 || len(req.Workload.Ranges) > 128 || len(req.Workload.Rects) > 64 {
				t.Skip("payload too large for fuzzing")
			}
			if req.Workload.Kind == "allranges" && domainOf(req.Policy, vol) > 512 {
				t.Skip("allranges workload too large for fuzzing")
			}
			if req.TimeoutMS > 0 && req.TimeoutMS < 1000 {
				// A deadline that can expire mid-request turns valid inputs
				// into timing-dependent 504s; the fuzz target is the decode
				// and validation surface, which the other seeds cover.
				t.Skip("racy deadline")
			}
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(data))
		if ikey != "" {
			hr.Header.Set("Idempotency-Key", ikey)
		}
		srv.ServeHTTP(rec, hr)
		if srv.Stats().Panics != 0 {
			t.Fatalf("request panicked (recovered to %d %s): %q", rec.Code, rec.Body.String(), data)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 on fuzzed input %q: %s", data, rec.Body.String())
		}
		// Every error must carry the structured schema.
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code == "" {
				t.Fatalf("unstructured %d error body %q (err %v)", rec.Code, rec.Body.String(), err)
			}
		}
	})
}

// domainOf sizes a policy's cell domain for the fuzz resource caps (an
// allranges workload over k cells compiles k(k+1)/2 queries).
func domainOf(ps PolicySpec, dimsVolume int) int {
	switch ps.Kind {
	case "grid":
		return ps.K * ps.K
	case "distance":
		return dimsVolume
	default:
		return ps.K
	}
}

// FuzzUpdateWire is the same contract for the streaming update endpoint.
func FuzzUpdateWire(f *testing.F) {
	f.Add([]byte(`{"policy":{"kind":"line","k":8},"workload":{"kind":"histogram"},"delta":{"cells":[1],"values":[2.5]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[1,2,3,4],"delta":{}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[9],"values":[1]}}`), "")
	f.Add([]byte(`{"delta":{"cells":[0],"values":[]}}`), "")
	f.Add([]byte(`{nope`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[0,0,0,0],"delta":{"cells":[0],"values":[1]}}`), "u-1")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[0],"values":[1]},"timeout_ms":-1}`), "u-1")
	f.Add([]byte(`{"timeout_ms":2000}`), strings.Repeat("U", 300))

	srv := New(Config{Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte, ikey string) {
		var req UpdateRequest
		if err := json.Unmarshal(data, &req); err == nil {
			if req.Policy.K > 64 || req.Policy.Theta > 64 || req.Options.Theta > 64 {
				t.Skip("domain too large for fuzzing")
			}
			vol := 1
			for _, d := range req.Policy.Dims {
				if d > 64 {
					t.Skip("dimension too large for fuzzing")
				}
				if d > 0 {
					vol *= d
				}
			}
			if len(req.Policy.Dims) > 4 || vol > 4096 {
				t.Skip("volume too large for fuzzing")
			}
			if len(req.Base) > 8192 || len(req.Delta.Cells) > 1024 || len(req.Delta.Values) > 1024 {
				t.Skip("payload too large for fuzzing")
			}
			if req.Workload.Kind == "allranges" && domainOf(req.Policy, vol) > 512 {
				t.Skip("allranges workload too large for fuzzing")
			}
			if req.TimeoutMS > 0 && req.TimeoutMS < 1000 {
				t.Skip("racy deadline")
			}
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/v1/update", bytes.NewReader(data))
		if ikey != "" {
			hr.Header.Set("Idempotency-Key", ikey)
		}
		srv.ServeHTTP(rec, hr)
		if srv.Stats().Panics != 0 {
			t.Fatalf("request panicked (recovered to %d %s): %q", rec.Code, rec.Body.String(), data)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 on fuzzed input %q: %s", data, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code == "" {
				t.Fatalf("unstructured %d error body %q (err %v)", rec.Code, rec.Body.String(), err)
			}
		}
	})
}

// FuzzWALReplayRecord throws arbitrary bytes at replayRecord, the function
// Recover trusts with every line the WAL framing layer hands back. The
// contract: a typed error or success, never a panic, whatever a corrupted
// log contains — and every op but "answer" and "update" is an error, so a
// log holding records an older daemon wrote cannot replay half-understood.
// (internal/persist's FuzzWALReplay covers the framing below this layer.)
func FuzzWALReplayRecord(f *testing.F) {
	planKey := `{\"policy\":{\"kind\":\"line\",\"k\":4},\"workload\":{\"kind\":\"histogram\"},\"options\":{}}`
	f.Add([]byte(`{"op":"answer","tenant":"t","state":{"budget":{"epsilon":0,"delta":0},"spent":{"epsilon":0.5,"delta":0},"releases":2}}`))
	f.Add([]byte(`{"op":"update","tenant":"t","key":"` + planKey + `","created":true,"base":[1,2,3,4],"cells":[0],"values":[2]}`))
	f.Add([]byte(`{"op":"update","tenant":"t","key":"` + planKey + `","cells":[0],"values":[2]}`))
	f.Add([]byte(`{"op":"answer","tenant":"t","idem_key":"k1","state":{"budget":{"epsilon":0,"delta":0},"spent":{"epsilon":0.25,"delta":0},"releases":1},"body":"eyJhIjoxfQ==","at":12345}`))
	f.Add([]byte(`{"op":"update","tenant":"t","idem_key":"k2","key":"` + planKey + `","created":true,"base":[0,0,0,0],"cells":[1],"values":[3],"body":"eyJiIjoyfQ==","at":12346}`))
	f.Add([]byte(`{"op":"answer","tenant":"t","idem_key":"k3"}`))
	f.Add([]byte(`{"op":"update","tenant":"t","idem_key":"k4","key":"{nope"}`))
	// One record of each op older daemons wrote; all must be rejected.
	f.Add([]byte(`{"op":"charge","tenant":"t","state":{"budget":{"epsilon":0,"delta":0},"spent":{"epsilon":0.5,"delta":0},"releases":2}}`))
	f.Add([]byte(`{"op":"open","tenant":"t","key":"` + planKey + `","base":[1,2,3,4]}`))
	f.Add([]byte(`{"op":"apply","tenant":"t","key":"` + planKey + `","cells":[0],"values":[2]}`))
	f.Add([]byte(`{"op":"idem_answer","tenant":"t","idem_key":"k5","state":{"budget":{"epsilon":0,"delta":0},"spent":{"epsilon":0.25,"delta":0},"releases":1},"status":200,"body":"eyJhIjoxfQ==","at":12345}`))
	f.Add([]byte(`{"op":"idem_update","tenant":"t","idem_key":"k6","key":"` + planKey + `","created":true,"base":[0,0,0,0],"cells":[1],"values":[3],"status":200,"body":"eyJiIjoyfQ==","at":12346}`))
	f.Add([]byte(`{"op":"warp"}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))

	srv := New(Config{Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Resource caps mirror the wire fuzzers: the target is record
		// validation, not strategy-compile throughput on giant (legitimate)
		// plan keys.
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err == nil {
			var spec planKeySpec
			if json.Unmarshal([]byte(rec.Key), &spec) == nil {
				if spec.Policy.K > 64 || spec.Policy.Theta > 64 || spec.Options.Theta > 64 {
					t.Skip("domain too large for fuzzing")
				}
				vol := 1
				for _, d := range spec.Policy.Dims {
					if d > 64 {
						t.Skip("dimension too large for fuzzing")
					}
					if d > 0 {
						vol *= d
					}
				}
				if len(spec.Policy.Dims) > 4 || vol > 4096 {
					t.Skip("volume too large for fuzzing")
				}
				if spec.Workload.Kind == "allranges" && domainOf(spec.Policy, vol) > 512 {
					t.Skip("allranges workload too large for fuzzing")
				}
				if len(spec.Workload.Ranges) > 128 || len(spec.Workload.Rects) > 64 {
					t.Skip("workload too large for fuzzing")
				}
			}
			if len(rec.Base) > 8192 || len(rec.Cells) > 1024 || len(rec.Values) > 1024 || len(rec.Body) > 1<<16 {
				t.Skip("payload too large for fuzzing")
			}
		}
		// Success or typed error; a panic fails the fuzz run.
		err := srv.replayRecord(data)
		if rec.Op != "answer" && rec.Op != "update" && err == nil {
			t.Fatalf("record %q with op %q replayed without an error", data, rec.Op)
		}
	})
}
