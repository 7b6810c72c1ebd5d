package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	shapes   map[string]shape // every workload's size; tests shrink them
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // blowfishd binary
	workDir  string // parent of the run's working directory
}

// readyTimeout bounds how long a (re)started daemon may take to serve.
const readyTimeout = 60 * time.Second

func run(cfg config) (*result, error) {
	in, err := generate(cfg.workload, cfg.shapes[cfg.workload], cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	printEnv(dir)
	if cfg.trace {
		return runTrace(cfg, in, dir)
	}
	return runE2E(cfg, in, dir)
}

// runE2E measures the daemon from outside: set-up, a closed-loop measured
// phase, output checks, kill -9 and restart (durable), and, for the answer
// workloads, an update phase replaying stream_grid's updates.
func runE2E(cfg config, in *inputs, dir string) (*result, error) {
	sh := in.shape
	b := newBench(in)
	tf := newTraffic(b)
	durable := in.name == "answer_durable"
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	start := func(dataDir string) (time.Duration, error) {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.daemon, dataDir, tf.flags()...); err != nil {
			return 0, err
		}
		if err := d.waitReady(b.hc, readyTimeout); err != nil {
			return 0, err
		}
		tf.attach(d.base)
		return time.Since(t0), nil
	}
	stop := func() time.Duration {
		took := d.kill()
		d = nil
		b.hc.CloseIdleConnections()
		return took
	}

	// Set-up, several times on fresh daemons: exec → /readyz 200 → every
	// plan compiled (and every stream opened). The last daemon is measured.
	var setups []float64
	for s := range sh.Setups {
		if d != nil {
			stop()
		}
		dataDir := ""
		if durable {
			dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", s))
		}
		runtime.GC() // start every set-up from a collected load-generator heap
		t0 := time.Now()
		if _, err := start(dataDir); err != nil {
			return nil, err
		}
		if err := tf.setup("setup"); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	op := func(c, _ int) (string, error) { return tf.op(c) }
	b.loop("warmup", 0, sh.Warmup, op)
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	meas := b.loop("measured", time.Duration(cfg.seconds*float64(time.Second)), 0, op)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	measured := b.phases["measured"]
	ok := measured.attempted.Load() - measured.failed.Load()
	_ = tf.verify("verify")
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}

	// A durable daemon is killed with kill -9 and restarted on its -data-dir,
	// first on byte-identical copies of the crashed directory so that every
	// sample replays the same log. The crashed daemon's reaping is one
	// sample per run and depends on how much memory the kernel frees, so it
	// is printed apart from recover_s.
	var recovers []float64
	if durable {
		dataDir := d.dataDir
		fmt.Printf("kill -9 to reaped: %.3f ms\n", ms(stop()))
		runtime.GC() // keep the load generator's collection out of the restarts
		for r := range sh.Restarts {
			restartDir := dataDir
			if r < sh.Restarts-1 {
				restartDir = filepath.Join(dir, fmt.Sprintf("crash-%d", r))
				if err := copyDir(dataDir, restartDir); err != nil {
					return nil, err
				}
			}
			took, err := start(restartDir)
			if err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			recovers = append(recovers, took.Seconds())
			if r < sh.Restarts-1 {
				stop()
			}
		}
		_ = tf.verify("recover")
	}

	// Only stream_grid's measured mix holds updates. An answer workload's
	// update_p50_ms comes from stream_grid's own update traffic (its seed,
	// grid plan, stream bases and deltas, updates only) sent to the same
	// daemon after everything above, on tenants of its own.
	upd := meas
	if sh.Updates > 0 {
		if upd, err = streamUpdates(b, cfg, d.base); err != nil {
			return nil, err
		}
	}

	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("throughput_ops", meas.throughput(), "1/s")
	m.set("answer_p50_ms", meas.latency("answer", 0.50), "ms")
	m.set("update_p50_ms", upd.latency("update", 0.50), "ms")
	m.set("daemon_cpu_ms_per_op", ms(cpu1-cpu0)/float64(max(ok, 1)), "ms")
	m.set("daemon_rss_mb", rss, "MiB")
	// Reported, not gated: on a shared host their run-to-run spread exceeds
	// any bound a regression gate may use (see LAYERS.md).
	report := metrics{}
	report.set("answer_p99_ms", meas.latency("answer", 0.99), "ms")
	report.set("update_p99_ms", upd.latency("update", 0.99), "ms")
	if durable {
		report.set("recover_s", median(recovers), "s")
	}

	attempted, failed := b.totals()
	fmt.Printf("samples answer=%d (%d windows) update=%d (%d windows) setups=%d restarts=%d measured_s=%.3f\n",
		len(meas.kinds["answer"]), meas.windows(len(meas.kinds["answer"])), len(upd.kinds["update"]),
		upd.windows(len(upd.kinds["update"])), len(setups), len(recovers), meas.elapsed.Seconds())
	b.printPhases()
	fmt.Printf("report %-22s %.6g (failed %d / attempted %d)\n", "error_rate", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	printMetrics("metric", m)
	printMetrics("report", report)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// streamUpdates opens stream_grid's streams on the daemon at base, sends
// them shape.Updates of stream_grid's updates and, where budgets are
// unlimited, checks the streams with a noise-free release each (a finite
// -tenant-eps refuses ε=0, so answer_durable checks each update's reply
// only).
func streamUpdates(b *bench, cfg config, base string) (phaseRun, error) {
	in, err := generate("stream_grid", cfg.shapes["stream_grid"], cfg.seed)
	if err != nil {
		return phaseRun{}, err
	}
	for t := range in.tenants {
		in.tenants[t] = "updates-" + in.tenants[t]
	}
	st := newStreamTraffic(b, in)
	st.attach(base)
	if err := st.setup("update"); err != nil {
		return phaseRun{}, fmt.Errorf("update setup: %w", err)
	}
	upd := b.loop("update", 0, cfg.shapes[cfg.workload].Updates/callers, func(c, _ int) (string, error) { return st.updateOp(c) })
	if serverConfig(b.in, "").TenantBudget.Epsilon == 0 {
		_ = st.verify("verify")
	}
	return upd, nil
}

func printMetrics(label string, m metrics) {
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Printf("%s %-22s %.6g %s\n", label, name, m[name].Value, m[name].Unit)
	}
}

// copyDir copies the regular files of a flat directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
}

// printEnv records the environment every result was measured in.
func printEnv(dataDir string) {
	fs := "unknown"
	var st syscall.Statfs_t
	if syscall.Statfs(dataDir, &st) == nil {
		fs = fmt.Sprintf("0x%x", st.Type)
		if name, ok := fsNames[int64(st.Type)]; ok {
			fs = name
		}
	}
	commit := "none (not a git checkout)"
	git := exec.Command("git", "rev-parse", "HEAD")
	// Only the checkout itself may say which commit it is.
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	env, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"data_dir_fs": fs, "commit": commit, "os": runtime.GOOS + "/" + runtime.GOARCH,
	})
	fmt.Printf("env %s\n", env)
}
