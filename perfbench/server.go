package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one child process serving HTTP on a loopback port: a
// cmd/schedserver started with its default flags and only -addr set, or
// the reference service.
type server struct {
	cmd    *exec.Cmd
	addr   string
	flags  []string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 15 * time.Second
)

// startServer spawns the schedserver binary bin and returns once GET
// /healthz answers 200.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no -server binary given")
	}
	return startProcess(bin, func(addr string) []string { return []string{"-addr", addr} })
}

// startProcess spawns bin with the flags that make it listen on a free
// loopback address and returns once GET /healthz answers 200.
func startProcess(bin string, flags func(addr string) []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{addr: addr, flags: flags(addr), exited: make(chan struct{})}
	s.cmd = exec.Command(bin, s.flags...)
	// Stdout and stderr stay nil (/dev/null): the server logs only
	// start-up and shutdown lines. Pdeathsig takes the child down if
	// the benchmark itself is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(); err != nil {
		s.stop() // nolint:errcheck — the readiness error is the one to report
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func (s *server) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited during start-up: %v", s.cmd.Path, s.err)
		default:
		}
		c, err := dial(s.addr)
		if err == nil {
			status, _, err := c.do(getRequest("/healthz"))
			c.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready on %s after %s", s.cmd.Path, s.addr, readyTimeout)
}

// stop asks the server to drain (SIGTERM), kills it if it does not exit
// in time, and waits until the process has ended.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", s.cmd.Path, err)
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(stopTimeout):
	}
	s.cmd.Process.Kill() // nolint:errcheck — Wait below reports the outcome
	<-s.exited
	return fmt.Errorf("%s did not drain within %s", s.cmd.Path, stopTimeout)
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(s.cmd.Process.Pid)
}

// vmHWM reads /proc/<pid>/status's VmHWM in MB (pid 0 = this process).
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// cacheCounters are the /metrics counters the per-layer cache ratios
// come from.
type cacheCounters struct {
	Requests        int64 `json:"requests"`
	ResultHits      int64 `json:"result_cache_hits"`
	ResultMisses    int64 `json:"result_cache_misses"`
	CompiledHits    int64 `json:"compiled_cache_hits"`
	CompiledMisses  int64 `json:"compiled_cache_misses"`
	SolvesCoalesced int64 `json:"solves_coalesced"`
}

func (s *server) counters() (cacheCounters, error) {
	var cc cacheCounters
	c, err := dial(s.addr)
	if err != nil {
		return cc, err
	}
	defer c.close()
	status, body, err := c.do(getRequest("/metrics"))
	if err != nil {
		return cc, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != 200 {
		return cc, fmt.Errorf("GET /metrics: status %d", status)
	}
	return cc, json.Unmarshal(body, &cc)
}

// ratio is n/d, and 0 when the layer made no lookups at all.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// cacheLayers records the cache ratios over the timed window from two
// /metrics scrapes taken before and after it.
func cacheLayers(rep *report, before, after cacheCounters) {
	rh, rm := after.ResultHits-before.ResultHits, after.ResultMisses-before.ResultMisses
	ch, cm := after.CompiledHits-before.CompiledHits, after.CompiledMisses-before.CompiledMisses
	rep.Layers["service.result_hit_ratio"] = metric{ratio(rh, rh+rm), "share"}
	rep.Layers["service.compiled_hit_ratio"] = metric{ratio(ch, ch+cm), "share"}
	rep.Layers["service.coalesced_share"] = metric{ratio(after.SolvesCoalesced-before.SolvesCoalesced, after.Requests-before.Requests), "share"}
}

// setUp starts a server and runs warm on it setupRuns times, stopping
// all but the last server, and records the median start-to-ready time
// as setup_s. warm runs the workload's warm-up pass and session opens.
func setUp(cfg config, rep *report, warm func(*server) error) (*server, error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		begin := time.Now()
		srv, err := startServer(cfg.server)
		if err != nil {
			return nil, err
		}
		if err := warm(srv); err != nil {
			srv.stop() // nolint:errcheck — the warm-up error is the one to report
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(begin).Seconds())
		if i == setupRuns-1 {
			rep.e2e("setup_s", median(times))
			rep.Machine.ServerFlags = srv.flags
			return srv, nil
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}
	panic("unreachable")
}
