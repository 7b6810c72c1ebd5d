package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for user space on every architecture.
const clockTicks = 100

// daemon is one running blowfishd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	stderr  bytes.Buffer
	done    chan struct{} // closed once the process has been reaped
	exitErr error
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs blowfishd with its shipped defaults plus extra flags, on
// a fresh loopback port.
func startDaemon(bin, dataDir string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	args := append([]string{"-addr", addr}, extra...)
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	d := &daemon{base: "http://" + addr, dataDir: dataDir, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, whatever ends it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting blowfishd: %w", err)
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls GET /readyz until it answers 200.
func (d *daemon) waitReady(hc *http.Client, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("blowfishd exited before ready (%v): %s", d.exitErr, d.stderr.String())
		case <-ctx.Done():
			d.kill() // reaped, so its stderr is complete
			return fmt.Errorf("blowfishd not ready after %v: %s", timeout, d.stderr.String())
		case <-time.After(50 * time.Microsecond):
		}
	}
}

// kill sends SIGKILL and waits until the process is reaped, returning how
// long that took.
func (d *daemon) kill() time.Duration {
	t0 := time.Now()
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	return time.Since(t0)
}

// cpuTime is the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
