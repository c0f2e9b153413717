package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one bricsd process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bricsd with args plus a loopback -addr, logging to
// logPath, and waits until /healthz answers. It polls every 200 µs: a whole
// set-up takes under 10 ms on some workloads, so a coarser poll would add a
// share of setup_s that varies from run to run.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr, "-drain", "2s")...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start bricsd: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
			Timeout:   150 * time.Second,
		},
		exited: make(chan struct{}),
		log:    logf,
	}
	go func() { _ = cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("bricsd exited during start-up (log %s)", logPath)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bricsd not healthy after 30s (log %s)", logPath)
		}
	}
}

// do sends c and records its timing, status and body.
func (d *daemon) do(c *call) { d.doCtx(context.Background(), c) }

func (d *daemon) doCtx(ctx context.Context, c *call) {
	var body io.Reader
	if c.body != "" {
		body = strings.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, c.method, d.base+c.path, body)
	if err != nil {
		c.err = err
		return
	}
	c.start = time.Now()
	resp, err := d.client.Do(req)
	if err == nil {
		c.status = resp.StatusCode
		c.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	c.end = time.Now()
	c.err = err
}

// get fetches path and returns the body of a 200 answer.
func (d *daemon) get(path string) ([]byte, error) {
	c := &call{method: "GET", path: path}
	d.do(c)
	if c.err != nil {
		return nil, c.err
	}
	if c.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, c.status, bytes.TrimSpace(c.resp))
	}
	return c.resp, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
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
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop asks bricsd to drain and exit, kills it if it has not exited after
// ten seconds, and returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
	d.log.Close()
}

// runClosedLoop drives the streams against d until deadline, one client per
// stream: the client sends an op's calls one after another and starts the
// next op only when they are answered. At the deadline, requests still
// waiting are abandoned (bricsd cancels their runs), except edge mutations,
// which run to the end so the graph state stays known. Calls that did not
// finish by the deadline are marked cut.
func (d *daemon) runClosedLoop(streams []stream, deadline time.Time) []*call {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	out := make([][]*call, len(streams))
	var wg sync.WaitGroup
	for k, st := range streams {
		wg.Add(1)
		go func(k int, st stream) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				for _, c := range st(i) {
					if c.kind == kInsert || c.kind == kDelete {
						d.do(c)
					} else {
						d.doCtx(ctx, c)
					}
					c.cut = c.end.After(deadline)
					out[k] = append(out[k], c)
					if c.cut {
						break
					}
				}
			}
		}(k, st)
	}
	wg.Wait()
	var all []*call
	for _, calls := range out {
		all = append(all, calls...)
	}
	return all
}
