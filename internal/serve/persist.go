package serve

// This file is the durability layer of the daemon, active only when
// Config.DataDir is set. It builds on internal/persist's generation Store:
//
//   - Every mutation commits as exactly one WAL record, keyed or not: an
//     answer through commitAnswer, an update through commitUpdate. The
//     record is appended and synced under walMu, in the same section that
//     changes memory, before the response is sent, so the log order is the
//     apply order and nothing acknowledged is missing from the log.
//   - Answer records carry the absolute post-charge ledger state, not the
//     delta, so replay is an idempotent overwrite — re-applying the record a
//     crash left as the last durable thing cannot double-spend.
//   - A keyed record also carries the idempotency key and the exact
//     response bytes, so a retry after a crash replays them instead of
//     executing again.
//   - Recover replays snapshot + WAL before the daemon reports ready, then
//     immediately rotates a fresh snapshot so the replayed WAL is retired.
//     A record whose op this version does not write fails Recover.
//   - Any disk failure flips the daemon read-only: updates 503, answers keep
//     serving with plain in-memory accounting. Privacy is never the casualty
//     of a full disk — availability of the ingest path is.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/persist"
)

// errReadOnly rejects durable mutations after a disk failure.
var errReadOnly = errors.New("serve: daemon is read-only after a disk failure")

// errStreamExists maps to HTTP 409 when a base is supplied for a stream
// that already exists.
var errStreamExists = errors.New("serve: stream already exists; base only seeds a new stream")

// walRecord is one durable mutation. Op selects which fields are live:
//
//	"answer": Tenant, State — one charged release; State is the absolute
//	    post-charge ledger (replay overwrites, idempotently).
//	"update": Tenant, Key, Created, Base, Cells, Values — one stream
//	    mutation: Created opens the stream from Base (nil Base = zeros)
//	    before the delta Cells/Values is folded in.
//
// Either op adds IdemKey, Body and At when the request carried an
// Idempotency-Key: the exact 200 response bytes and when they were
// recorded, so the dedupe table survives a crash.
type walRecord struct {
	Op      string                    `json:"op"`
	Tenant  string                    `json:"tenant,omitempty"`
	Key     string                    `json:"key,omitempty"`
	State   *blowfish.AccountantState `json:"state,omitempty"`
	Created bool                      `json:"created,omitempty"`
	Base    []float64                 `json:"base,omitempty"`
	Cells   []int                     `json:"cells,omitempty"`
	Values  []float64                 `json:"values,omitempty"`
	IdemKey string                    `json:"idem_key,omitempty"`
	Body    []byte                    `json:"body,omitempty"`
	At      int64                     `json:"at,omitempty"`
}

// streamSnap is one maintained stream in a snapshot, identified by its
// tenant and exact plan key (the canonical planKeySpec JSON — parseable, so
// recovery can re-prepare the plan).
type streamSnap struct {
	Tenant string                `json:"tenant"`
	Key    string                `json:"key"`
	State  *blowfish.StreamState `json:"state"`
}

// idemSnap is one recorded idempotent response in a snapshot, so the
// dedupe table survives WAL rotation: a retry arriving after a snapshot
// retired the original keyed record still replays the original bytes.
type idemSnap struct {
	Tenant string `json:"tenant"`
	Key    string `json:"key"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
	At     int64  `json:"at"`
}

// snapshotData is the full daemon image one snapshot generation holds.
type snapshotData struct {
	Tenants map[string]blowfish.AccountantState `json:"tenants"`
	Streams []streamSnap                        `json:"streams"`
	Idem    []idemSnap                          `json:"idem,omitempty"`
}

// splitStreamKey undoes streamKey. Plan keys are json.Marshal output, which
// escapes control characters, so the first NUL is always the separator.
func splitStreamKey(k string) (tenant, plankey string, ok bool) {
	i := strings.IndexByte(k, 0)
	if i < 0 {
		return "", "", false
	}
	return k[:i], k[i+1:], true
}

// enterReadOnly flips the daemon read-only after a disk failure (once).
func (s *Server) enterReadOnly(err error) {
	if s.readOnly.CompareAndSwap(false, true) && s.cfg.Logf != nil {
		s.cfg.Logf("serve: entering read-only mode: %v", err)
	}
}

// notReady gates a handler on recovery: a durable daemon answers 503
// "not_ready" until Recover has replayed the WAL. Returns true when the
// request may proceed.
func (s *Server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return true
	}
	s.errorCount.Add(1)
	writeError(w, http.StatusServiceUnavailable, "not_ready",
		"daemon is replaying its write-ahead log; retry shortly", nil)
	return false
}

// appendWAL marshals and durably appends one record. A store failure flips
// the daemon read-only and reports errReadOnly (callers map it to 503).
// Must be called with walMu held.
func (s *Server) appendWAL(rec walRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return invalid("unencodable WAL record: %v", err)
	}
	if err := s.store.Append(raw); err != nil {
		s.enterReadOnly(err)
		return fmt.Errorf("%w: %v", errReadOnly, err)
	}
	s.walRecords.Add(1)
	return nil
}

// commitAnswer is the one commit point of every release, keyed or not,
// static or stream: it charges one release of per to the tenant's ledger and
// returns the response bytes, built from this request's post-charge state.
// On a durable daemon the post-charge state — plus the idempotency key and
// the response bytes when the request is keyed — is appended as one
// "answer" record inside ChargeLogged, which holds the ledger mutex across
// the append, so the spend never becomes observable before it is durable.
// A crash therefore loses either the whole release (a retry executes fresh,
// charged once) or nothing (a keyed retry replays the recorded bytes), and
// a response that cannot be encoded is never charged. A disk failure
// degrades to in-memory accounting so answers keep serving: budget is
// still enforced, it just won't survive a crash, which the operator learns
// from /readyz and the read_only stat.
func (s *Server) commitAnswer(tenant, ikey string, acct *blowfish.Accountant, per blowfish.Budget, resp AnswerResponse) ([]byte, error) {
	var body []byte
	build := func(st blowfish.AccountantState) error {
		resp.Budget = budgetInfoFromState(st)
		b, err := json.Marshal(resp)
		if err != nil {
			return invalid("unencodable response: %v", err)
		}
		body = b
		return nil
	}
	logged := s.store != nil && !s.readOnly.Load()
	if logged {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		logged = !s.readOnly.Load()
	}
	err := acct.ChargeLogged(per, 1, func(st blowfish.AccountantState) error {
		if err := build(st); err != nil || !logged {
			return err
		}
		rec := walRecord{Op: "answer", Tenant: tenant, State: &st}
		if ikey != "" {
			rec.IdemKey, rec.Body, rec.At = ikey, body, s.idem.now().UnixNano()
		}
		return s.appendWAL(rec)
	})
	if errors.Is(err, errReadOnly) {
		// The charge was admissible; only the disk failed.
		err = acct.ChargeLogged(per, 1, build)
	}
	if err != nil {
		return nil, err
	}
	if ikey != "" {
		s.idem.finish(idemKey(tenant, ikey), http.StatusOK, body)
	}
	return body, nil
}

// commitUpdate is the one commit point of every stream mutation: it opens
// the (tenant, plan) stream if needed, folds the delta in, and on a durable
// daemon appends one "update" record, all under walMu so the log order is
// the apply order. The only branch is when the record is appended:
//
//   - unkeyed, before the stream changes: a failed append leaves memory as
//     it was, and the request fails 503 read_only;
//   - keyed, after the apply, because the recorded response carries the
//     post-apply refresh counters. A failed append then leaves the delta in
//     memory but unacknowledged; the daemon is read-only from that moment
//     and refuses every later update, so no divergent history is ever
//     acknowledged, and a crash loses record and memory together.
//
// A durable daemon that is already read-only refuses updates outright.
func (s *Server) commitUpdate(entry *planEntry, tenant, key, ikey, hash string, req *UpdateRequest) ([]byte, error) {
	durable := s.store != nil
	if durable {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if s.readOnly.Load() {
			return nil, errReadOnly
		}
	}
	skey := streamKey(tenant, key)
	// Only mutations create streams, and on a durable daemon they all run
	// under walMu, so this check still holds when the record is appended.
	_, exists := s.streams.get(skey)
	if exists && req.Base != nil {
		// A base on an existing stream would silently fork histories; make
		// the caller drop it (or wait for the stream to age out of the LRU).
		return nil, errStreamExists
	}
	rec := walRecord{Op: "update", Tenant: tenant, Key: key, Created: !exists,
		Base: req.Base, Cells: req.Delta.Cells, Values: req.Delta.Values}
	if durable && ikey == "" {
		if err := s.appendWAL(rec); err != nil {
			return nil, err
		}
	}
	pl := entry.plan
	st, cached, err := s.streams.getOrCreate(skey, func() (*blowfish.Stream, error) {
		base := req.Base
		if base == nil {
			base = make([]float64, pl.Domain())
		}
		return entry.eng.OpenStream(pl, base, blowfish.StreamOptions{})
	})
	if err != nil {
		return nil, err
	}
	if cached && req.Base != nil {
		// An in-memory daemon's concurrent update created it first.
		return nil, errStreamExists
	}
	if len(req.Delta.Cells) > 0 {
		if err := st.Apply(blowfish.Delta{Cells: req.Delta.Cells, Values: req.Delta.Values}); err != nil {
			return nil, err
		}
	}
	stats := st.Stats()
	body, err := json.Marshal(UpdateResponse{
		PlanKey:    hash,
		Created:    !cached,
		Applied:    len(req.Delta.Cells),
		Patches:    stats.Patches,
		Recomputes: stats.Recomputes,
	})
	if err != nil {
		return nil, invalid("unencodable response: %v", err)
	}
	if ikey == "" {
		return body, nil
	}
	if durable {
		rec.IdemKey, rec.Body, rec.At = ikey, body, s.idem.now().UnixNano()
		if err := s.appendWAL(rec); err != nil {
			return nil, err
		}
	}
	s.idem.finish(idemKey(tenant, ikey), http.StatusOK, body)
	return body, nil
}

// planFromKey re-prepares the plan a stored plan key names. The key is
// derived once from the parsed spec, so a stored key that is valid JSON but
// not canonical still resolves to the key live requests use.
func (s *Server) planFromKey(stored string) (*planEntry, string, error) {
	var spec planKeySpec
	if err := json.Unmarshal([]byte(stored), &spec); err != nil {
		return nil, "", fmt.Errorf("serve: unparseable plan key %q: %w", stored, err)
	}
	key, _, err := planKey(spec.Policy, spec.Workload, spec.Options)
	if err != nil {
		return nil, "", err
	}
	entry, err := s.plan(key, spec.Policy, spec.Workload, spec.Options)
	if err != nil {
		return nil, "", fmt.Errorf("serve: re-preparing plan for recovery: %w", err)
	}
	return entry, key, nil
}

// restoreStream rebuilds one maintained stream from its snapshot image and
// installs it in the cache.
func (s *Server) restoreStream(tenant, key string, st *blowfish.StreamState) error {
	entry, exactKey, err := s.planFromKey(key)
	if err != nil {
		return err
	}
	stream, err := entry.eng.RestoreStream(entry.plan, st)
	if err != nil {
		return fmt.Errorf("serve: restoring stream for tenant %q: %w", tenant, err)
	}
	s.streams.put(streamKey(tenant, exactKey), stream)
	return nil
}

// replayRecord applies one WAL record during Recover. Replay failures are
// startup failures: a record the daemon acknowledged must apply, and one
// that doesn't is corruption the operator has to see. So is an op this
// version does not write, such as a record of an older daemon whose WAL
// was not retired by a clean shutdown.
func (s *Server) replayRecord(raw []byte) error {
	var rec walRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("serve: undecodable WAL record: %w", err)
	}
	switch rec.Op {
	case "answer":
		if rec.State == nil {
			return fmt.Errorf("serve: answer record for tenant %q has no state", rec.Tenant)
		}
		// Absolute post-charge state: overwrite, idempotently.
		if err := s.Accountant(rec.Tenant).RestoreState(*rec.State); err != nil {
			return err
		}
	case "update":
		entry, exactKey, err := s.planFromKey(rec.Key)
		if err != nil {
			return err
		}
		skey := streamKey(rec.Tenant, exactKey)
		if rec.Created {
			base := rec.Base
			if base == nil {
				base = make([]float64, entry.plan.Domain())
			}
			// put, not getOrCreate: the WAL only holds records newer than the
			// snapshot, so a created stream replaces any image of an earlier
			// stream the snapshot held before that one aged out of the LRU.
			stream, err := entry.eng.OpenStream(entry.plan, base, blowfish.StreamOptions{})
			if err != nil {
				return fmt.Errorf("serve: reopening stream for replay: %w", err)
			}
			s.streams.put(skey, stream)
		}
		st, ok := s.streams.get(skey)
		if !ok {
			return fmt.Errorf("serve: update record for tenant %q references a stream neither snapshot nor log opened", rec.Tenant)
		}
		if len(rec.Cells) > 0 {
			if err := st.Apply(blowfish.Delta{Cells: rec.Cells, Values: rec.Values}); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("serve: unknown WAL op %q; a log written by an older daemon must be retired by a SIGTERM shutdown before upgrading", rec.Op)
	}
	if rec.IdemKey != "" {
		s.idem.install(idemKey(rec.Tenant, rec.IdemKey), idemEntry{Status: http.StatusOK, Body: rec.Body, At: rec.At})
	}
	return nil
}

// Recover attaches the daemon to its data directory, restores the latest
// snapshot, replays the WAL, rotates a fresh snapshot, and marks the
// daemon ready. Without a DataDir it only marks ready. cmd/blowfishd calls
// it synchronously before accepting traffic; tests call it directly.
func (s *Server) Recover() error {
	if s.cfg.DataDir == "" {
		s.ready.Store(true)
		return nil
	}
	store, rec, err := persist.Open(s.cfg.DataDir, persist.Options{Injector: s.cfg.Injector, NoSync: s.cfg.WALNoSync})
	if err != nil {
		return err
	}
	s.store = store
	if rec.Snapshot != nil {
		var data snapshotData
		if err := json.Unmarshal(rec.Snapshot, &data); err != nil {
			return fmt.Errorf("serve: undecodable snapshot payload: %w", err)
		}
		for tenant, st := range data.Tenants {
			if err := s.Accountant(tenant).RestoreState(st); err != nil {
				return fmt.Errorf("serve: restoring tenant %q ledger: %w", tenant, err)
			}
		}
		for _, ss := range data.Streams {
			if err := s.restoreStream(ss.Tenant, ss.Key, ss.State); err != nil {
				return err
			}
		}
		for _, is := range data.Idem {
			s.idem.install(idemKey(is.Tenant, is.Key), idemEntry{Status: is.Status, Body: is.Body, At: is.At})
		}
	}
	for _, raw := range rec.Records {
		if err := s.replayRecord(raw); err != nil {
			return err
		}
		s.walReplayed.Add(1)
	}
	// Fold the replayed log into a fresh generation immediately: the WAL the
	// daemon just replayed is retired, and a failure here means the disk is
	// already misbehaving — start read-only rather than refuse to start.
	s.walMu.Lock()
	if err := s.snapshotLocked(); err != nil {
		s.enterReadOnly(err)
	}
	s.walMu.Unlock()
	s.ready.Store(true)

	interval := s.cfg.SnapshotInterval
	if interval == 0 {
		interval = time.Minute
	}
	s.stopSnap = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func() {
		defer close(s.snapDone)
		if interval < 0 {
			<-s.stopSnap
			return
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopSnap:
				return
			case <-t.C:
				_ = s.Snapshot()
			}
		}
	}()
	return nil
}

// Snapshot rotates the current full daemon state into a new snapshot
// generation, retiring the WAL. Safe to call concurrently with serving.
func (s *Server) Snapshot() error {
	if s.store == nil {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.readOnly.Load() {
		return errReadOnly
	}
	if err := s.snapshotLocked(); err != nil {
		s.enterReadOnly(err)
		return err
	}
	return nil
}

// snapshotLocked exports every tenant ledger and every completed stream and
// rotates the store to a new generation. Streams evicted from the LRU since
// the last snapshot are simply absent, matching their in-memory fate.
// Must be called with walMu held.
func (s *Server) snapshotLocked() error {
	data := snapshotData{Tenants: map[string]blowfish.AccountantState{}}
	s.tenantMu.Lock()
	accts := make(map[string]*blowfish.Accountant, len(s.tenants))
	for t, a := range s.tenants {
		accts[t] = a
	}
	s.tenantMu.Unlock()
	for t, a := range accts {
		data.Tenants[t] = a.ExportState()
	}
	s.streams.each(func(key string, st *blowfish.Stream) {
		tenant, plankey, ok := splitStreamKey(key)
		if !ok {
			return
		}
		data.Streams = append(data.Streams, streamSnap{Tenant: tenant, Key: plankey, State: st.ExportState()})
	})
	s.idem.each(func(key string, ent idemEntry) {
		tenant, ikey, ok := splitStreamKey(key)
		if !ok {
			return
		}
		data.Idem = append(data.Idem, idemSnap{Tenant: tenant, Key: ikey, Status: ent.Status, Body: ent.Body, At: ent.At})
	})
	payload, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("serve: unencodable snapshot: %w", err)
	}
	if err := s.store.Rotate(payload); err != nil {
		return err
	}
	s.snapshots.Add(1)
	return nil
}

// Close shuts the durability layer down: the snapshot ticker stops, a final
// snapshot rotates (so a clean shutdown restarts with an empty WAL), and
// the store's file handles close. Idempotent; a no-op without a DataDir.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		if s.stopSnap != nil {
			close(s.stopSnap)
			<-s.snapDone
		}
		if s.store == nil {
			return
		}
		if !s.readOnly.Load() {
			s.walMu.Lock()
			if serr := s.snapshotLocked(); serr != nil {
				s.enterReadOnly(serr)
				err = serr
			}
			s.walMu.Unlock()
		}
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// handleReady is GET /readyz: 200 once recovery has replayed the WAL and
// the disk is healthy, 503 "not_ready" during replay, 503 "read_only"
// after a disk failure. Distinct from /healthz, which stays 200 as long as
// the process serves at all — orchestrators restart on liveness and hold
// traffic on readiness.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"daemon is replaying its write-ahead log", nil)
	case s.readOnly.Load():
		writeError(w, http.StatusServiceUnavailable, "read_only",
			"daemon is read-only after a disk failure", nil)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
