package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of one run, in order. Every request the benchmark sends is counted
// as attempted in exactly one of them, and as failed when it errors, gets a
// non-2xx status or fails an output check.
var phaseNames = []string{"setup", "warmup", "measured", "update", "verify", "recover", "probe"}

type phase struct{ attempted, failed atomic.Int64 }

// bench is the state of one run against the daemon.
type bench struct {
	in     *inputs
	hc     *http.Client
	phases map[string]*phase

	mu       sync.Mutex
	failures []string
}

func newBench(in *inputs) *bench {
	b := &bench{
		in: in,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * callers, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		phases: map[string]*phase{},
	}
	for _, p := range phaseNames {
		b.phases[p] = &phase{}
	}
	return b
}

// fail records a failed request or output check in phase ph.
func (b *bench) fail(ph string, format string, args ...any) {
	b.phases[ph].failed.Add(1)
	msg := fmt.Sprintf("%s: %s", ph, fmt.Sprintf(format, args...))
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
	}
}

// do counts one attempted request in ph and records it as failed when it
// returns an error.
func (b *bench) do(ph string, f func() error) error {
	b.phases[ph].attempted.Add(1)
	err := f()
	if err != nil {
		b.fail(ph, "%v", err)
	}
	return err
}

// printPhases prints every phase's attempted, succeeded and failed counts.
func (b *bench) printPhases() {
	for _, name := range phaseNames {
		p := b.phases[name]
		a, f := p.attempted.Load(), p.failed.Load()
		fmt.Printf("phase %-8s attempted=%d succeeded=%d failed=%d\n", name, a, a-f, f)
	}
}

func (b *bench) totals() (attempted, failed int64) {
	for _, p := range b.phases {
		attempted += p.attempted.Load()
		failed += p.failed.Load()
	}
	return attempted, failed
}

// sample is one successful request: when it completed, counted from the
// start of its phase, and how long it took.
type sample struct{ at, took time.Duration }

// phaseRun is what one closed loop produced: the samples by request kind
// and the loop's length.
type phaseRun struct {
	kinds   map[string][]sample
	elapsed time.Duration
}

// loop drives the closed loop: every caller sends op after op, each only
// once the previous reply is in, until the deadline passes (d > 0) or it
// has sent perCaller ops. op returns the request kind for the latency
// sample; failed ops are counted by op itself and leave no sample.
func (b *bench) loop(ph string, d time.Duration, perCaller int, op func(c, i int) (string, error)) phaseRun {
	out := make([]map[string][]sample, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range callers {
		out[c] = map[string][]sample{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if d > 0 && time.Since(start) >= d || d <= 0 && i >= perCaller {
					return
				}
				t0 := time.Now()
				var kind string
				err := b.do(ph, func() (err error) {
					kind, err = op(c, i)
					return err
				})
				if err == nil {
					now := time.Now()
					out[c][kind] = append(out[c][kind], sample{at: now.Sub(start), took: now.Sub(t0)})
				}
			}
		}()
	}
	wg.Wait()
	run := phaseRun{kinds: map[string][]sample{}, elapsed: time.Since(start)}
	for _, s := range out {
		for k, v := range s {
			run.kinds[k] = append(run.kinds[k], v...)
		}
	}
	return run
}

// Windowed medians: a phase is cut into up to maxWindows equal stretches of
// time, each holding at least minWindowSamples samples, a figure is taken
// in every window and the median of those is reported, so a burst of
// interference from outside the benchmark moves it less.
const (
	maxWindows       = 5
	minWindowSamples = 1000
)

func (p phaseRun) windows(n int) int { return max(1, min(maxWindows, n/minWindowSamples)) }

// overWindows splits ss into w time windows and returns the median of f
// over them.
func (p phaseRun) overWindows(ss []sample, w int, f func(win []sample, length time.Duration) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	parts := make([][]sample, w)
	for _, s := range ss {
		i := min(w-1, int(int64(s.at)*int64(w)/int64(max(p.elapsed, 1))))
		parts[i] = append(parts[i], s)
	}
	var vals []float64
	for _, part := range parts {
		if len(part) > 0 {
			vals = append(vals, f(part, p.elapsed/time.Duration(w)))
		}
	}
	return median(vals)
}

// latency is the windowed q-quantile of one request kind, in ms.
func (p phaseRun) latency(kind string, q float64) float64 {
	ss := p.kinds[kind]
	return p.overWindows(ss, p.windows(len(ss)), func(win []sample, _ time.Duration) float64 {
		ds := make([]time.Duration, len(win))
		for i, s := range win {
			ds[i] = s.took
		}
		return ms(quantile(ds, q))
	})
}

// ops is the number of successful requests.
func (p phaseRun) ops() int {
	n := 0
	for _, ss := range p.kinds {
		n += len(ss)
	}
	return n
}

// throughput is the windowed rate of successful requests of every kind.
func (p phaseRun) throughput() float64 {
	var all []sample
	for _, ss := range p.kinds {
		all = append(all, ss...)
	}
	return p.overWindows(all, p.windows(len(all)), func(win []sample, length time.Duration) float64 {
		return float64(len(win)) / length.Seconds()
	})
}

// quantile is the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// postJSON sends one plain JSON POST without an Idempotency-Key, the way a
// curl caller does, and decodes a 200 reply into out.
func (b *bench) postJSON(base, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := b.hc.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(rb))
	}
	return json.Unmarshal(rb, out)
}
