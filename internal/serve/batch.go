package serve

import (
	"context"
	"sync"
	"time"
)

// batchResult is what one coalesced request gets back from its batch.
type batchResult struct {
	answers []float64
	batched int // how many releases rode in the same AnswerBatch call
	err     error
}

// batchCall is one pending request waiting to be coalesced. done is buffered
// so the flusher never blocks on a caller that gave up (context canceled).
type batchCall struct {
	x    []float64
	eps  float64
	done chan batchResult
}

// batcher coalesces concurrent answer requests for one cached plan into
// AnswerBatch calls: the first pending request arms a window timer, and
// everything that arrives before it fires (or before the batch hits max) is
// released in one call over the shared worker pool. The flush runs
// uncharged: each caller charges its own tenant once its answers are back.
type batcher struct {
	window time.Duration
	max    int
	run    func(calls []*batchCall) // set by the server; delivers to every done chan

	mu        sync.Mutex
	pending   []*batchCall
	timerLive bool
}

func newBatcher(window time.Duration, max int, run func([]*batchCall)) *batcher {
	if max < 1 {
		max = 1
	}
	return &batcher{window: window, max: max, run: run}
}

// submit enqueues one release and waits for its result. The calling
// goroutine flushes immediately when it fills the batch to max; otherwise a
// timer goroutine flushes everything pending once the window elapses. A
// canceled ctx abandons the wait — the release may still be computed, but
// the result is discarded and nothing is charged for it.
func (b *batcher) submit(ctx context.Context, x []float64, eps float64) batchResult {
	c := &batchCall{x: x, eps: eps, done: make(chan batchResult, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, c)
	var flushNow []*batchCall
	if len(b.pending) >= b.max {
		flushNow = b.pending
		b.pending = nil
	} else if !b.timerLive {
		b.timerLive = true
		go b.timerFlush()
	}
	b.mu.Unlock()
	if flushNow != nil {
		b.run(flushNow)
	}
	select {
	case r := <-c.done:
		return r
	case <-ctx.Done():
		return batchResult{err: ctx.Err()}
	}
}

// timerFlush waits out the window, then releases whatever is pending. A
// max-size flush may have drained the queue in the meantime; firing on an
// empty queue is a no-op.
func (b *batcher) timerFlush() {
	time.Sleep(b.window)
	b.mu.Lock()
	calls := b.pending
	b.pending = nil
	b.timerLive = false
	b.mu.Unlock()
	if len(calls) > 0 {
		b.run(calls)
	}
}
