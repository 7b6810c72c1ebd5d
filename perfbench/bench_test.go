package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"github.com/privacylab/blowfish/internal/serve"
)

// tinyShapes shrink every workload so a whole run takes about a second.
var tinyShapes = map[string]shape{
	"answer_wire":    {K: 32, Queries: 20, Tenants: 4, Epsilon: 0.5, MaxCount: 10, Cells: 4, Updates: 20, Setups: 2, Warmup: 2},
	"answer_durable": {K: 32, Queries: 20, Tenants: 4, Epsilon: 0.01, MaxCount: 10, Cells: 4, Updates: 20, Setups: 2, Restarts: 2, Warmup: 2},
	"stream_grid":    {K: 16, Queries: 8, Tenants: 4, Epsilon: 0.01, MaxCount: 10, Cells: 4, Setups: 2, Warmup: 2},
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if _, ok := fullShapes[n]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not one the benchmark runs", n)
		}
	}
	return endToEnd, perLayer
}

// buildDaemon builds blowfishd from the repository into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "blowfishd")
	out, err := exec.Command("go", "build", "-o", bin, "github.com/privacylab/blowfish/cmd/blowfishd").CombinedOutput()
	if err != nil {
		t.Fatalf("building blowfishd: %v\n%s", err, out)
	}
	return bin
}

// TestTinyRunsEmitEveryMetric runs every workload end to end and traced at
// tiny size: each run must pass its checks and emit exactly the metrics
// BENCHMARK.json declares, with their units, each a finite number.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon")
	}
	endToEnd, perLayer := declared(t)
	bin := buildDaemon(t)
	for _, name := range slices.Sorted(maps.Keys(tinyShapes)) {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := run(config{workload: name, shapes: tinyShapes, seed: 3, seconds: 0.4, trace: trace,
				daemon: bin, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", name, trace, m)
				}
			}
			for _, m := range []string{"answer_p50_ms", "throughput_ops", "setup_s", "update_p50_ms"} {
				if !trace && res.Metrics[m].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
				}
			}
		}
	}
}

// corrupting serves the daemon's API in-process and rewrites the replies
// that edit selects.
func corrupting(t *testing.T, in *inputs, edit func(r *http.Request, h http.Header, body []byte) []byte) *httptest.Server {
	srv := serve.New(serverConfig(in, ""))
	if in.name == "answer_durable" {
		srv = serve.New(serverConfig(in, t.TempDir()))
	}
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = edit(r, rec.Header(), body)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return ts
}

// drive runs a workload's set-up, ops and checks against the server and
// returns how many requests failed.
func drive(t *testing.T, name string, edit func(r *http.Request, h http.Header, body []byte) []byte) int64 {
	t.Helper()
	in, err := generate(name, tinyShapes[name], 5)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(in)
	ts := corrupting(t, in, edit)
	tf := newTraffic(b)
	tf.attach(ts.URL)
	if err := tf.setup("setup"); err != nil {
		t.Fatalf("setup: %v", err)
	}
	b.loop("measured", 0, 40, func(c, _ int) (string, error) { return tf.op(c) })
	_ = tf.verify("verify")
	_, failed := b.totals()
	return failed
}

func unchanged(_ *http.Request, _ http.Header, body []byte) []byte { return body }

// TestChecksCatchCorruption: an honest server passes every check, and one
// corrupted answer, replay body or ledger fails them.
func TestChecksCatchCorruption(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(tinyShapes)) {
		if failed := drive(t, name, unchanged); failed != 0 {
			t.Errorf("%s against an honest server: %d failed checks", name, failed)
		}
	}
	cases := []struct {
		name, workload string
		edit           func(r *http.Request, h http.Header, body []byte) []byte
	}{
		{"noise-free answer off by one", "answer_wire", func(r *http.Request, _ http.Header, body []byte) []byte {
			return editAnswer(r, body, func(a *serve.AnswerResponse) { a.Answers[0]++ })
		}},
		{"noise-free stream answer off by one", "stream_grid", func(r *http.Request, _ http.Header, body []byte) []byte {
			return editAnswer(r, body, func(a *serve.AnswerResponse) { a.Answers[len(a.Answers)-1]-- })
		}},
		{"replayed body altered", "answer_durable", func(_ *http.Request, h http.Header, body []byte) []byte {
			if h.Get("Idempotent-Replay") != "true" {
				return body
			}
			return bytes.Replace(body, []byte(`"answers":[`), []byte(`"answers":[ `), 1)
		}},
		{"ledger over-reports spend", "answer_durable", func(r *http.Request, _ http.Header, body []byte) []byte {
			if r.URL.Path != "/v1/budget" {
				return body
			}
			return bytes.Replace(body, []byte(`"spent_epsilon":`), []byte(`"spent_epsilon":1`), 1)
		}},
	}
	for _, tc := range cases {
		if failed := drive(t, tc.workload, tc.edit); failed == 0 {
			t.Errorf("%s: no check failed", tc.name)
		}
	}
}

// editAnswer rewrites every answer reply. Only the noise-free releases can
// be checked against exact sums, so those are what must catch it.
func editAnswer(r *http.Request, body []byte, f func(*serve.AnswerResponse)) []byte {
	var a serve.AnswerResponse
	if r.URL.Path != "/v1/answer" || json.Unmarshal(body, &a) != nil {
		return body
	}
	f(&a)
	out, _ := json.Marshal(a)
	return out
}
