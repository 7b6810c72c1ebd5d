package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/privacylab/blowfish/client"
)

// traffic sends one workload's requests and keeps the shadow state its
// output checks compare against. Every tenant belongs to one caller (inputs.owned), so a
// caller reads and writes its tenants' shadow state without locks.
type traffic interface {
	// flags are the daemon flags the workload adds to the shipped defaults.
	flags() []string
	// attach points the traffic at a (re)started daemon.
	attach(base string)
	// setup compiles every plan the workload uses on a fresh daemon,
	// counting its requests in phase ph.
	setup(ph string) error
	// op sends caller c's next measured request and checks its reply.
	op(c int) (kind string, err error)
	// verify runs the output checks against the shadow state.
	verify(ph string) error
}

func newTraffic(b *bench) traffic {
	in := b.in
	t := &tenants{n: make([]int64, len(in.tenants)), spent: make([]float64, len(in.tenants))}
	switch in.name {
	case "answer_wire":
		return &wireTraffic{b: b, in: in, t: t}
	case "answer_durable":
		return &durableTraffic{b: b, in: in, t: t, sent: make([][]sent, len(in.tenants))}
	default:
		return newStreamTraffic(b, in)
	}
}

func newStreamTraffic(b *bench, in *inputs) *streamTraffic {
	s := &streamTraffic{b: b, in: in, t: &tenants{n: make([]int64, len(in.tenants)), spent: make([]float64, len(in.tenants))}}
	for _, x := range in.xs {
		s.db = append(s.db, append([]float64(nil), x...))
	}
	return s
}

// tenants is the shadow ledger: acknowledged non-replay releases and the ε
// they spent, accumulated in the order the daemon's accountant adds them.
type tenants struct {
	n     []int64
	spent []float64
	seq   [callers]int // per-caller op counter
}

// next returns caller c's op number and the tenant it targets; each tenant
// gets `every` consecutive ops before the caller moves on to its next one.
func (t *tenants) next(in *inputs, c, every int) (int, int) {
	seq := t.seq[c]
	t.seq[c]++
	own := in.owned(c)
	return seq, own[(seq/every)%len(own)]
}

// release checks a fresh release's ledger and shape, then advances the
// shadow ledger.
func (t *tenants) release(tenant int, eps float64, got *client.AnswerResponse, queries int) error {
	want := t.spent[tenant]
	if eps > 0 {
		want += eps
	}
	if got.Replayed || got.Budget.Releases != t.n[tenant]+1 || got.Budget.SpentEpsilon != want {
		return fmt.Errorf("tenant %d: replayed %v, ledger releases %d spent %v, want %d and %v",
			tenant, got.Replayed, got.Budget.Releases, got.Budget.SpentEpsilon, t.n[tenant]+1, want)
	}
	if len(got.Answers) != queries {
		return fmt.Errorf("tenant %d: %d answers, want %d", tenant, len(got.Answers), queries)
	}
	for _, v := range got.Answers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tenant %d: non-finite answer %v", tenant, v)
		}
	}
	t.n[tenant]++
	t.spent[tenant] = want
	return nil
}

// ledgers compares every daemon-side ledger with its shadow.
func (t *tenants) ledgers(b *bench, ph string, cl *client.Client) error {
	var errs []error
	for i, name := range b.in.tenants {
		errs = append(errs, b.do(ph, func() error {
			got, err := cl.Budget(context.Background(), name)
			if err != nil {
				return err
			}
			if got.Releases != t.n[i] || got.SpentEpsilon != t.spent[i] {
				return fmt.Errorf("%s ledger: releases %d spent %v, want %d and %v",
					name, got.Releases, got.SpentEpsilon, t.n[i], t.spent[i])
			}
			return nil
		}))
	}
	return errors.Join(errs...)
}

// exactly compares a noise-free release with the exact query answers.
func exactly(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Errorf("noise-free answer %d = %v, exact %v", i, got[i], want[i])
		}
	}
	return nil
}

func (in *inputs) answerReq(tenant int, eps float64) *client.AnswerRequest {
	return &client.AnswerRequest{Tenant: in.tenants[tenant], Policy: in.policy, Workload: in.work, Epsilon: eps, X: in.xs[tenant]}
}

func (in *inputs) updateReq(c, tenant int, open bool) *client.UpdateRequest {
	req := &client.UpdateRequest{Tenant: in.tenants[tenant], Policy: in.policy, Workload: in.work}
	if open {
		req.Base = in.xs[tenant]
	} else {
		req.Delta = in.delta(in.rng[c])
	}
	return req
}

func checkUpdate(got *client.UpdateResponse, req *client.UpdateRequest) error {
	if got.Replayed || got.Created != (req.Base != nil) || got.Applied != len(req.Delta.Cells) {
		return fmt.Errorf("update reply %+v for %d cells (open %v)", *got, len(req.Delta.Cells), req.Base != nil)
	}
	return nil
}

// wireTraffic sends plain JSON POSTs without Idempotency-Key to the
// in-memory daemon: the only workload on the unkeyed path and the batcher.
type wireTraffic struct {
	b    *bench
	in   *inputs
	t    *tenants
	base string
}

func (d *wireTraffic) flags() []string { return nil }

func (d *wireTraffic) attach(base string) { d.base = base }

func (d *wireTraffic) setup(ph string) error {
	return d.b.do(ph, func() error {
		req := d.in.answerReq(0, d.in.shape.Epsilon)
		req.Tenant = "setup"
		var out client.AnswerResponse
		return d.b.postJSON(d.base, "/v1/answer", req, &out)
	})
}

func (d *wireTraffic) op(c int) (string, error) {
	_, t := d.t.next(d.in, c, 1)
	return "answer", d.answer(t, d.in.shape.Epsilon)
}

func (d *wireTraffic) answer(t int, eps float64) error {
	var out client.AnswerResponse
	if err := d.b.postJSON(d.base, "/v1/answer", d.in.answerReq(t, eps), &out); err != nil {
		return err
	}
	if err := d.t.release(t, eps, &out, d.in.shape.Queries); err != nil {
		return err
	}
	if eps == 0 {
		return exactly(out.Answers, d.in.exact(d.in.xs[t]))
	}
	return nil
}

// verify sends one ε=0 release per tenant: noise-free under the unlimited
// budget, so it must equal the exact range sums.
func (d *wireTraffic) verify(ph string) error {
	var errs []error
	for t := range d.in.tenants {
		errs = append(errs, d.b.do(ph, func() error { return d.answer(t, 0) }))
	}
	return errors.Join(errs...)
}

// sent is one fresh keyed release and the exact bytes it was answered with.
type sent struct {
	key string
	raw []byte
}

// resendEvery: one request in this many re-sends an earlier key.
const resendEvery = 10

// resendWindow is how far back a re-sent key may reach, per tenant; far
// inside the daemon's idempotency table (-idem-max 4096 over 8 tenants).
const resendWindow = 32

// durableTraffic sends keyed requests through the client package to a
// daemon with -data-dir, re-sending one key in ten.
type durableTraffic struct {
	b    *bench
	in   *inputs
	t    *tenants
	sent [][]sent // per tenant, the last resendWindow fresh releases
	keys [callers]string
	cl   [callers]*client.Client
}

func (d *durableTraffic) flags() []string {
	// Far more ε per tenant than any run spends, so no release is refused.
	return []string{"-tenant-eps", "1e6"}
}

func (d *durableTraffic) attach(base string) {
	for c := range callers {
		d.cl[c] = client.New(client.Config{BaseURL: base, HTTPClient: d.b.hc, MaxRetries: -1,
			NewKey: func() string { return d.keys[c] }})
	}
}

func (d *durableTraffic) setup(ph string) error {
	return d.b.do(ph, func() error {
		req := d.in.answerReq(0, d.in.shape.Epsilon)
		req.Tenant = "setup"
		d.keys[0] = "setup"
		_, err := d.cl[0].Answer(context.Background(), req)
		return err
	})
}

func (d *durableTraffic) op(c int) (string, error) {
	seq, t := d.t.next(d.in, c, 1)
	if seq%resendEvery == resendEvery-1 && len(d.sent[t]) > 0 {
		prev := d.sent[t][d.in.rng[c].Intn(len(d.sent[t]))]
		return "answer", d.resend(c, t, prev)
	}
	d.keys[c] = fmt.Sprintf("c%d-%d", c, seq)
	got, err := d.cl[c].Answer(context.Background(), d.in.answerReq(t, d.in.shape.Epsilon))
	if err != nil {
		return "answer", err
	}
	if err := d.t.release(t, d.in.shape.Epsilon, got, d.in.shape.Queries); err != nil {
		return "answer", err
	}
	d.sent[t] = append(d.sent[t], sent{key: d.keys[c], raw: got.Raw})
	if len(d.sent[t]) > resendWindow {
		d.sent[t] = d.sent[t][1:]
	}
	return "answer", nil
}

// resend re-sends an earlier key; the daemon must replay the original
// bytes without charging again.
func (d *durableTraffic) resend(c, t int, prev sent) error {
	d.keys[c] = prev.key
	got, err := d.cl[c].Answer(context.Background(), d.in.answerReq(t, d.in.shape.Epsilon))
	if err != nil {
		return err
	}
	if !got.Replayed || !bytes.Equal(got.Raw, prev.raw) {
		return fmt.Errorf("key %s: replayed %v, bytes identical %v", prev.key, got.Replayed, bytes.Equal(got.Raw, prev.raw))
	}
	return nil
}

// verify reconciles every ledger with the shadow; after a restart it also
// re-sends each tenant's last key, which must still replay byte-identical.
func (d *durableTraffic) verify(ph string) error {
	err := d.t.ledgers(d.b, ph, d.cl[0])
	if ph != "recover" {
		return err
	}
	errs := []error{err}
	for t := range d.in.tenants {
		if n := len(d.sent[t]); n > 0 {
			errs = append(errs, d.b.do(ph, func() error { return d.resend(0, t, d.sent[t][n-1]) }))
		}
	}
	return errors.Join(errs...)
}

// updatesPerAnswer sets stream_grid's mix: this many updates, then one
// stream answer, per tenant in turn.
const updatesPerAnswer = 3

// streamTraffic keeps one maintained stream per tenant on the grid plan and
// mixes keyed updates with stream answers through the client package.
type streamTraffic struct {
	b    *bench
	in   *inputs
	t    *tenants
	db   [][]float64 // shadow databases: base plus every acknowledged delta
	keys [callers]string
	cl   [callers]*client.Client
}

func (d *streamTraffic) flags() []string { return nil }

func (d *streamTraffic) attach(base string) {
	for c := range callers {
		d.cl[c] = client.New(client.Config{BaseURL: base, HTTPClient: d.b.hc, MaxRetries: -1,
			NewKey: func() string { return d.keys[c] }})
	}
}

// setup compiles the grid plan and opens every tenant's stream.
func (d *streamTraffic) setup(ph string) error {
	var errs []error
	for t := range d.in.tenants {
		errs = append(errs, d.b.do(ph, func() error {
			d.keys[0] = fmt.Sprintf("open-%d", t)
			req := d.in.updateReq(0, t, true)
			got, err := d.cl[0].Update(context.Background(), req)
			if err != nil {
				return err
			}
			return checkUpdate(got, req)
		}))
	}
	return errors.Join(errs...)
}

func (d *streamTraffic) op(c int) (string, error) {
	seq, t := d.t.next(d.in, c, updatesPerAnswer+1)
	d.keys[c] = fmt.Sprintf("c%d-%d", c, seq)
	if seq%(updatesPerAnswer+1) == updatesPerAnswer {
		return "answer", d.answer(c, t, d.in.shape.Epsilon)
	}
	return "update", d.update(c, t)
}

// updateOp sends caller c's next update in the same tenant rotation as op,
// but never a stream answer.
func (d *streamTraffic) updateOp(c int) (string, error) {
	seq, t := d.t.next(d.in, c, updatesPerAnswer)
	d.keys[c] = fmt.Sprintf("c%d-%d", c, seq)
	return "update", d.update(c, t)
}

func (d *streamTraffic) answer(c, t int, eps float64) error {
	req := &client.AnswerRequest{Tenant: d.in.tenants[t], Policy: d.in.policy, Workload: d.in.work, Epsilon: eps, Stream: true}
	got, err := d.cl[c].Answer(context.Background(), req)
	if err != nil {
		return err
	}
	if err := d.t.release(t, eps, got, d.in.shape.Queries); err != nil {
		return err
	}
	if eps == 0 {
		return exactly(got.Answers, d.in.exact(d.db[t]))
	}
	return nil
}

func (d *streamTraffic) update(c, t int) error {
	req := d.in.updateReq(c, t, false)
	got, err := d.cl[c].Update(context.Background(), req)
	if err != nil {
		return err
	}
	if err := checkUpdate(got, req); err != nil {
		return err
	}
	for i, cell := range req.Delta.Cells {
		d.db[t][cell] += req.Delta.Values[i]
	}
	return nil
}

// verify releases every tenant's stream once at ε=0: noise-free under the
// unlimited budget, so it must equal the exact rectangle sums of the base
// plus every acknowledged delta.
func (d *streamTraffic) verify(ph string) error {
	var errs []error
	for t := range d.in.tenants {
		errs = append(errs, d.b.do(ph, func() error {
			d.keys[0] = fmt.Sprintf("verify-%s-%d", ph, t)
			return d.answer(0, t, 0)
		}))
	}
	return errors.Join(errs...)
}
