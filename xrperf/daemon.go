package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running xrserved process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	done chan struct{}
	err  error // Wait result, valid after done closes
}

// live tracks started daemons so every exit path can reap them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon boots bin in memory (no -data-dir) on a loopback ephemeral
// port with otherwise default flags, logging to workDir/logName, and
// returns once the listener is up.
func startDaemon(ctx context.Context, bin, workDir, logName string) (*daemon, error) {
	addrFile := filepath.Join(workDir, "xrserved.addr")
	_ = os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(workDir, logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = daemonProcAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting xrserved: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, done: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()

	// The daemon writes the address file once its listener is live.
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-tick.C:
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("xrserved exited during boot: %v (log: %s)", d.err, logf.Name())
		case <-deadline.C:
			d.stop()
			return nil, errors.New("xrserved did not report its address within 30s")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// after 10s, and waits until the process is reaped. Calling it again is
// harmless.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// stopAll reaps every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}
