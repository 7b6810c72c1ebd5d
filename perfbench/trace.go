package main

// The traced run splits each request across the layers. It serves the same
// generated traffic, from the same two-caller closed loop and the same
// traffic generators (so every output check still runs), through an in-process
// blowfishd: the HTTP transport calls Server.ServeHTTP directly. Around
// each request it records spans from this file only — the program itself
// carries no tracing: the real handler (serve.http), the client's encode
// and decode of the same bytes, and, right after the handler returns, each
// stage the handler runs that has a public function, replayed through it on
// the same request (decode, noise split, engine or stream call, ledger
// charge, encode). The handler's time the replayed stages do not account
// for — plan keys, caches, admission, idempotency table, WAL appends, batch
// wait, routing — is serve.self. Layers a workload's requests do not reach
// are timed by probes on the same inputs after the traced phase. The WAL,
// snapshot and recovery figures come from a durable in-process daemon that
// serves the workload's traffic after the traced phase.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/client"
	"github.com/privacylab/blowfish/internal/persist"
	"github.com/privacylab/blowfish/internal/serve"
)

// span is one timed call. Spans of one request share its ID; Parent is the
// index of the enclosing span in the trace (-1 for a request root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"request"`
	Phase  string `json:"phase"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// open starts a span and returns its index; close ends it.
func (r *recorder) open(name string, parent int, id int64, phase string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, ID: id, Phase: phase})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// time runs f inside a span.
func (r *recorder) time(name string, parent int, id int64, phase string, f func()) {
	i := r.open(name, parent, id, phase)
	f()
	r.close(i)
}

// selfTimes is each span's duration minus the part of its interval its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := slices.Clone(kids[i])
		slices.SortFunc(ks, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, end := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, end), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// serverConfig is blowfishd's configuration at its shipped default flags
// plus the workload's own flags (see traffic.flags).
func serverConfig(in *inputs, dataDir string) serve.Config {
	cfg := serve.Config{
		PlanCacheSize: 64, EngineCacheSize: 16, StreamCacheSize: 64,
		BatchWindow: 2 * time.Millisecond, MaxBatch: 64,
		DataDir: dataDir,
	}
	if in.name == "answer_durable" {
		cfg.TenantBudget = blowfish.Budget{Epsilon: 1e6}
	}
	return cfg
}

// library builds the workload's policy and workload through the root API.
func (in *inputs) library() (*blowfish.Policy, *blowfish.Workload) {
	if in.policy.Kind == "line" {
		w := &blowfish.Workload{Name: "ranges", K: in.shape.K}
		for _, r := range in.work.Ranges {
			w.Queries = append(w.Queries, blowfish.Range1D{L: r[0], R: r[1]})
		}
		return blowfish.LinePolicy(in.shape.K), w
	}
	w := &blowfish.Workload{Name: "rects", K: in.shape.K * in.shape.K}
	for _, r := range in.work.Rects {
		w.Queries = append(w.Queries, blowfish.RangeKd{Lo: r.Lo, Hi: r.Hi})
	}
	return blowfish.GridPolicy(in.shape.K), w
}

// replica holds the benchmark's own instance of each layer the replayed
// stages call.
type replica struct {
	eng  *blowfish.Engine
	pl   *blowfish.Plan
	acct map[string]*blowfish.Accountant // every tenant, created up front

	streamsMu sync.Mutex
	streams   map[string]*blowfish.Stream

	srcMu sync.Mutex
	src   *blowfish.Source
}

func (rp *replica) stream(tenant string) *blowfish.Stream {
	rp.streamsMu.Lock()
	defer rp.streamsMu.Unlock()
	return rp.streams[tenant]
}

func (rp *replica) open(tenant string, base []float64) {
	st, err := rp.eng.OpenStream(rp.pl, base, blowfish.StreamOptions{})
	if err != nil {
		return
	}
	rp.streamsMu.Lock()
	defer rp.streamsMu.Unlock()
	rp.streams[tenant] = st
}

func (rp *replica) split() *blowfish.Source {
	rp.srcMu.Lock()
	defer rp.srcMu.Unlock()
	return rp.src.Split()
}

// tracer is the in-process transport: it serves each request with the
// current Server and, while on, records the request's spans.
type tracer struct {
	rec    *recorder
	rep    *replica
	srv    http.Handler
	on     bool // only flipped while no caller runs
	phase  string
	nextID atomic.Int64

	posts, keyed, replays atomic.Int64
	reqBytes, respBytes   atomic.Int64
	wall                  atomic.Int64 // summed RoundTrip time, ns
}

func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}
	inner := httptest.NewRequest(req.Method, req.URL.RequestURI(), bytes.NewReader(body))
	inner.Header = req.Header.Clone()
	w := httptest.NewRecorder()
	if req.Method != http.MethodPost || !t.on {
		t.srv.ServeHTTP(w, inner)
	} else {
		t.traced(inner, body, w)
	}
	if req.Method == http.MethodPost {
		t.posts.Add(1)
		t.wall.Add(int64(time.Since(t0)))
		if req.Header.Get("Idempotency-Key") != "" && strings.HasSuffix(req.URL.Path, "/v1/answer") {
			t.keyed.Add(1)
			if w.Header().Get("Idempotent-Replay") == "true" {
				t.replays.Add(1)
			}
		}
	}
	resp := w.Result()
	resp.Request = req
	return resp, nil
}

// traced serves one POST under spans and replays its stages.
func (t *tracer) traced(inner *http.Request, body []byte, w *httptest.ResponseRecorder) {
	r, id, ph := t.rec, t.nextID.Add(1), t.phase
	root := r.open("request", -1, id, ph)
	defer r.close(root)
	r.time("serve.http", root, id, ph, func() { t.srv.ServeHTTP(w, inner) })
	if w.Code != http.StatusOK {
		return
	}
	replay := w.Header().Get("Idempotent-Replay") == "true"
	if ph == "traced" { // the wire metrics are per traced request, as their divisor
		t.reqBytes.Add(int64(len(body)))
		t.respBytes.Add(int64(w.Body.Len()))
	}
	stages := r.open("serve.stages", root, id, ph)
	if strings.HasSuffix(inner.URL.Path, "/v1/update") {
		t.update(body, w.Body.Bytes(), root, stages, id)
	} else {
		t.answer(body, w.Body.Bytes(), replay, root, stages, id)
	}
	r.close(stages)
}

func (t *tracer) answer(body, resp []byte, replay bool, root, parent int, id int64) {
	r, ph, rp := t.rec, t.phase, t.rep
	var creq client.AnswerRequest
	_ = json.Unmarshal(body, &creq)
	r.time("client.encode", root, id, ph, func() { _, _ = json.Marshal(&creq) })
	var cresp client.AnswerResponse
	r.time("client.decode", root, id, ph, func() { _ = json.Unmarshal(resp, &cresp) })

	var req serve.AnswerRequest
	r.time("serve.decode", parent, id, ph, func() { _ = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if replay {
		return // the idempotency table answered before the plan lookup
	}
	var src *blowfish.Source
	r.time("noise.split", parent, id, ph, func() { src = rp.split() })
	ctx := context.Background()
	if req.Stream {
		st := rp.stream(req.Tenant)
		r.time("stream.answer", parent, id, ph, func() { _, _ = st.AnswerWith(ctx, nil, req.Epsilon, src) })
	} else {
		r.time("engine.answer", parent, id, ph, func() { _, _ = rp.pl.AnswerWith(ctx, nil, req.X, req.Epsilon, src) })
	}
	out := serve.AnswerResponse{}
	_ = json.Unmarshal(resp, &out)
	acct := rp.acct[req.Tenant]
	r.time("ledger.charge", parent, id, ph, func() { _ = acct.ChargeLogged(rp.pl.Cost(req.Epsilon), 1, nil) })
	r.time("serve.encode", parent, id, ph, func() { _ = json.NewEncoder(io.Discard).Encode(out) })
}

func (t *tracer) update(body, resp []byte, root, parent int, id int64) {
	r, ph, rp := t.rec, t.phase, t.rep
	var creq client.UpdateRequest
	_ = json.Unmarshal(body, &creq)
	r.time("client.encode", root, id, ph, func() { _, _ = json.Marshal(&creq) })
	var cresp client.UpdateResponse
	r.time("client.decode", root, id, ph, func() { _ = json.Unmarshal(resp, &cresp) })

	var req serve.UpdateRequest
	r.time("serve.decode", parent, id, ph, func() { _ = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if req.Base != nil {
		r.time("stream.open", parent, id, ph, func() { rp.open(req.Tenant, req.Base) })
	}
	if len(req.Delta.Cells) > 0 {
		st := rp.stream(req.Tenant)
		r.time("stream.apply", parent, id, ph, func() { _ = st.Apply(blowfish.Delta{Cells: req.Delta.Cells, Values: req.Delta.Values}) })
	}
	out := serve.UpdateResponse{}
	_ = json.Unmarshal(resp, &out)
	r.time("serve.encode", parent, id, ph, func() { _ = json.NewEncoder(io.Discard).Encode(out) })
}

// probeCalls is how many calls each probe times.
const probeCalls = 64

// runTrace is the per-layer run: set-up, an untraced and a traced closed
// loop of the same length, the output checks, then probes.
func runTrace(cfg config, in *inputs, dir string) (*result, error) {
	sh := in.shape
	b := newBench(in)
	rec := &recorder{epoch: time.Now()}
	budget := serverConfig(in, "").TenantBudget
	rp := &replica{acct: map[string]*blowfish.Accountant{},
		streams: map[string]*blowfish.Stream{}, src: blowfish.NewSource(cfg.seed)}
	for _, name := range append([]string{"setup"}, in.tenants...) {
		a, err := blowfish.NewAccountant(budget)
		if err != nil {
			return nil, err
		}
		rp.acct[name] = a
	}
	store, _, err := persist.Open(filepath.Join(dir, "replica-wal"), persist.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()

	// Engine open and plan compile, the set-up work of every daemon.
	pol, work := in.library()
	for range sh.Setups {
		rec.time("engine.open", -1, 0, "setup", func() { rp.eng, err = blowfish.Open(pol, blowfish.EngineOptions{}) })
		if err != nil {
			return nil, err
		}
		rec.time("engine.prepare", -1, 0, "setup", func() {
			rp.pl, err = rp.eng.Prepare(work, blowfish.Options{Estimator: blowfish.EstimatorLaplace})
		})
		if err != nil {
			return nil, err
		}
	}

	dataDir := ""
	if in.name == "answer_durable" {
		dataDir = filepath.Join(dir, "data")
	}
	srv := serve.New(serverConfig(in, dataDir))
	if err := srv.Recover(); err != nil {
		return nil, err
	}
	tr := &tracer{rec: rec, rep: rp, srv: srv, on: true, phase: "setup"}
	b.hc = &http.Client{Transport: tr}
	tf := newTraffic(b)
	tf.attach("http://blowfishd")
	if err := tf.setup("setup"); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr.on = false
	op := func(c, _ int) (string, error) { return tf.op(c) }
	b.loop("warmup", 0, sh.Warmup, op)

	// The same closed loop untraced, then traced: the difference in time per
	// request is the tracing overhead.
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	wall0, posts0 := tr.wall.Load(), tr.posts.Load()
	b.loop("measured", half, 0, op)
	untraced := float64(tr.wall.Load()-wall0) / float64(tr.posts.Load()-posts0)

	tr.on, tr.phase = true, "traced"
	wall0, posts0 = tr.wall.Load(), tr.posts.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.loop("measured", half, 0, op)
	runtime.ReadMemStats(&ms1)
	tracedOps := float64(tr.posts.Load() - posts0)
	traced := float64(tr.wall.Load()-wall0) / tracedOps
	tr.on, tr.phase = false, ""

	_ = tf.verify("verify")
	st := srv.Stats()
	// Every replay the callers saw must be one idempotency-table hit.
	if st.IdemHits != tr.replays.Load() {
		b.fail("verify", "idem_hits %d != %d replays seen by the callers", st.IdemHits, tr.replays.Load())
	}

	// Layers the traced requests did not reach are timed on the same inputs.
	reached := map[string]bool{}
	for _, s := range rec.spans {
		reached[s.Name] = true
	}
	ctx := context.Background()
	if !reached["stream.apply"] {
		for t, name := range in.tenants {
			rec.time("stream.open", -1, 0, "probe", func() { rp.open(name, in.xs[t]) })
		}
		for i := range probeCalls {
			s := rp.stream(in.tenants[i%len(in.tenants)])
			d := in.delta(in.rng[0])
			rec.time("stream.apply", -1, 0, "probe", func() { _ = s.Apply(blowfish.Delta{Cells: d.Cells, Values: d.Values}) })
			rec.time("stream.answer", -1, 0, "probe", func() { _, _ = s.AnswerWith(ctx, nil, sh.Epsilon, rp.split()) })
		}
	}
	if !reached["engine.answer"] {
		for i := range len(in.tenants) {
			src := rp.split()
			rec.time("engine.answer", -1, 0, "probe", func() { _, _ = rp.pl.AnswerWith(ctx, nil, in.xs[i], sh.Epsilon, src) })
		}
	}

	var patches, recomputes int64
	for _, s := range rp.streams {
		patches += s.Stats().Patches
		recomputes += s.Stats().Recomputes
	}

	rp.streams = nil // free the replica's streams before the next daemon
	if err := srv.Close(); err != nil {
		return nil, err
	}

	// The WAL, snapshot rotation and recovery are measured on a fresh
	// durable daemon serving the workload's set-up, then probeCalls ops per
	// caller of its traffic with a fresh shadow state. Records and bytes per
	// op are what that daemon counted and wrote; the records it wrote are
	// then appended, fsynced, to the replica's store to time wal.append.
	dataDir = filepath.Join(dir, "probe-data")
	pcfg := serverConfig(in, dataDir)
	pcfg.SnapshotInterval = -1 // rotations are timed below, never mid-probe
	durSrv := serve.New(pcfg)
	if err := durSrv.Recover(); err != nil {
		return nil, err
	}
	tr.srv = durSrv
	ptf := newTraffic(b)
	ptf.attach("http://blowfishd")
	if err := ptf.setup("probe"); err != nil {
		return nil, fmt.Errorf("probe setup: %w", err)
	}
	recs0, size0, err := liveWAL(dataDir)
	if err != nil {
		return nil, err
	}
	counted0 := durSrv.Stats().WALRecords
	probe := b.loop("probe", 0, probeCalls, func(c, _ int) (string, error) { return ptf.op(c) })
	recs1, size1, err := liveWAL(dataDir)
	if err != nil {
		return nil, err
	}
	walRecs, walBytes := durSrv.Stats().WALRecords-counted0, size1-size0
	if int64(len(recs1)-len(recs0)) != walRecs {
		b.fail("probe", "the WAL file grew by %d records, the daemon counted %d", len(recs1)-len(recs0), walRecs)
	}
	probeOps := float64(max(probe.ops(), 1))
	if written := recs1[len(recs0):]; len(written) > 0 {
		for i := range probeCalls {
			rec.time("wal.append", -1, 0, "probe", func() { _ = store.Append(written[i%len(written)]) })
		}
	}
	_ = ptf.verify("probe")

	crash := filepath.Join(dir, "crash")
	if err := copyDir(dataDir, crash); err != nil {
		return nil, err
	}
	for range sh.Setups {
		rec.time("snapshot.rotate", -1, 0, "probe", func() { err = durSrv.Snapshot() })
		if err != nil {
			return nil, err
		}
	}
	if err := durSrv.Close(); err != nil {
		return nil, err
	}
	recovered := serve.New(serverConfig(in, crash))
	var replayed int64
	err = b.do("recover", func() error {
		if err := recovered.Recover(); err != nil {
			return err
		}
		replayed = recovered.Stats().WALReplayed
		return recovered.Close()
	})
	if err != nil {
		return nil, err
	}

	m := layerMetrics(rec.spans)
	m.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
	m.set("serve.batch_size_mean", ratio(st.BatchedReleases, st.Batches), "count")
	m.set("serve.plan_cache_hit_ratio", ratio(st.PlanCacheHits, st.PlanCacheHits+st.PlanCacheMisses), "ratio")
	m.set("serve.idem_hit_ratio", ratio(st.IdemHits, tr.keyed.Load()), "ratio")
	m.set("serve.idem_entries", float64(st.IdemEntries), "count")
	m.set("stream.patch_ratio", ratio(patches, patches+recomputes), "ratio")
	m.set("wal.records_per_op", float64(walRecs)/probeOps, "count")
	m.set("wal.bytes_per_op", float64(walBytes)/probeOps, "B")
	m.set("recover.replayed_records", float64(replayed), "count")
	m.set("wire.request_bytes", float64(tr.reqBytes.Load())/tracedOps, "B")
	m.set("wire.response_bytes", float64(tr.respBytes.Load())/tracedOps, "B")
	m.set("go.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/tracedOps, "KiB")
	m.set("go.gc_cycles_per_kop", 1000*float64(ms1.NumGC-ms0.NumGC)/tracedOps, "count")

	spansPath := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", in.name, cfg.seed))
	if err := writeSpans(spansPath, rec.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(rec.spans), spansPath)
	attempted, failed := b.totals()
	b.printPhases()
	printMetrics("metric", m)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timedLayers are the per-layer timings: the span name, the metric unit
// (µs per request-path call, ms per set-up call).
var timedLayers = []struct{ span, unit string }{
	{"client.encode", "us"}, {"client.decode", "us"},
	{"serve.http", "us"}, {"serve.decode", "us"}, {"serve.encode", "us"},
	{"engine.answer", "us"}, {"noise.split", "us"},
	{"stream.apply", "us"}, {"stream.answer", "us"},
	{"ledger.charge", "us"}, {"wal.append", "us"},
	{"engine.open", "ms"}, {"engine.prepare", "ms"}, {"stream.open", "ms"}, {"snapshot.rotate", "ms"},
}

// layerMetrics turns the spans into per-layer metrics. A request-path
// layer's time is its mean per call over the traced phase (over set-up or
// probe calls when the traced requests never reached it), and its share is
// its summed time in the traced phase over the summed serve.http time.
// serve.self is, per traced request, the handler's time minus the replayed
// stages' time.
func layerMetrics(spans []span) metrics {
	type agg struct {
		sum time.Duration
		n   int
	}
	traced, other := map[string]*agg{}, map[string]*agg{}
	add := func(m map[string]*agg, name string, d time.Duration) {
		if m[name] == nil {
			m[name] = &agg{}
		}
		m[name].sum += d
		m[name].n++
	}
	self := selfTimes(spans)
	http := map[int64]time.Duration{}
	stages := map[int64]time.Duration{}
	for i, s := range spans {
		if s.Phase != "traced" {
			add(other, s.Name, s.dur())
			continue
		}
		add(traced, s.Name, s.dur())
		switch s.Name {
		case "serve.http":
			http[s.ID] = s.dur()
		case "serve.stages":
			stages[s.ID] = s.dur() - self[i]
		}
	}
	for id, d := range http {
		add(traced, "serve.self", d-stages[id])
	}
	m := metrics{}
	httpSum := float64(0)
	if a := traced["serve.http"]; a != nil {
		httpSum = float64(a.sum)
	}
	for _, l := range append(timedLayers, struct{ span, unit string }{"serve.self", "us"}) {
		a := traced[l.span]
		if a == nil {
			a = other[l.span]
		}
		mean := 0.0
		if a != nil {
			mean = float64(a.sum) / float64(a.n)
		}
		scale := float64(time.Microsecond)
		if l.unit == "ms" {
			scale = float64(time.Millisecond)
		}
		m.set(l.span+"_"+l.unit, mean/scale, l.unit)
		if l.unit == "us" && l.span != "serve.http" {
			share := 0.0
			if a := traced[l.span]; a != nil && httpSum > 0 {
				share = 100 * float64(a.sum) / httpSum
			}
			m.set(l.span+"_share", share, "%")
		}
	}
	// The wire's cost against the math's: decode, encode and the handler's
	// own time over the engine call, per request.
	if eng := m["engine.answer_us"].Value; eng > 0 {
		m.set("serve.wire_over_engine", (m["serve.decode_us"].Value+m["serve.encode_us"].Value+m["serve.self_us"].Value)/eng, "x")
	}
	return m
}

// liveWAL reads the records of the one WAL file in a daemon's data
// directory, and its size.
func liveWAL(dir string) ([][]byte, int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil {
		return nil, 0, err
	}
	if len(names) != 1 {
		return nil, 0, fmt.Errorf("%s: %d WAL files, want 1", dir, len(names))
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		return nil, 0, err
	}
	recs, _, err := persist.DecodeWAL(raw)
	return recs, int64(len(raw)), err
}

// writeSpans writes the trace, one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
