package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// proc is one child process: a serve replica or the router.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  string
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// cluster is the set of processes a workload boots.
type cluster struct {
	dir    string
	client *http.Client
	procs  []*proc // every running child
	serve  *proc   // the server the generator drives
}

// freePort asks the kernel for an unused loopback port. Each boot
// takes fresh ports, so a server of an earlier boot that is still
// exiting can never answer for a new one.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// start spawns bin listening on a fresh port with env (such as
// GOMAXPROCS=1) added to the environment; the process's output goes to
// a log file in the run directory.
func (c *cluster) start(name, bin, env string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(c.dir, fmt.Sprintf("%s-%d.log", name, port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), env)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, errors.Join(fmt.Errorf("start %s: %w", name, err), logf.Close())
	}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close() //hanccr:allow discarderr the child owns the log; its exit already ended every write
		close(p.done)
	}()
	return p, nil
}

// waitReady polls GET /healthz until it answers 200, the process
// exits, or the deadline passes.
func (c *cluster) waitReady(ctx context.Context, p *proc, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (%v); log: %s", p.name, p.err, tail(p.log))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(stop) {
			return fmt.Errorf("%s not ready after %s; log: %s", p.name, deadline, tail(p.log))
		}
	}
}

// stop kills every process and waits for each to exit.
func (c *cluster) stop() {
	for _, p := range c.procs {
		_ = p.cmd.Process.Kill() // an already-exited process reports an error we do not need
	}
	for _, p := range c.procs {
		<-p.done
	}
	c.procs, c.serve = nil, nil
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// post sends one request and returns the status and body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serviceStats is the part of GET /v1/stats the benchmark reads.
type serviceStats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	StructureCache struct {
		Hits uint64 `json:"hits"`
	} `json:"structure_cache"`
	Store struct {
		Hits    uint64 `json:"hits"`
		Records int    `json:"records"`
		Bytes   int64  `json:"bytes"`
	} `json:"store"`
	Gate struct {
		Shed uint64 `json:"shed"`
	} `json:"gate"`
}

func (a serviceStats) minus(b serviceStats) serviceStats {
	a.Cache.Hits -= b.Cache.Hits
	a.Cache.Misses -= b.Cache.Misses
	a.StructureCache.Hits -= b.StructureCache.Hits
	a.Store.Hits -= b.Store.Hits
	a.Gate.Shed -= b.Gate.Shed
	return a
}

// stats reads the server's /v1/stats.
func (c *cluster) stats(ctx context.Context) (serviceStats, error) {
	var st serviceStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.serve.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// cpuNS reads the CPU time in nanoseconds of every thread of pid from
// /proc/<pid>/task/<tid>/schedstat, keyed by thread id. Unlike the
// 10 ms ticks of /proc/<pid>/stat it is exact, so a few seconds of a
// lightly loaded server are measured to the microsecond.
func cpuNS(pid int) (map[int]uint64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ns := map[int]uint64{}
	for _, e := range entries {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since the directory was read
		}
		if err != nil {
			return nil, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return nil, fmt.Errorf("empty schedstat of thread %d of %d", tid, pid)
		}
		if ns[tid], err = strconv.ParseUint(f[0], 10, 64); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// cpuDelta is the CPU time the threads of a spent between two cpuNS
// readings. A thread that started in between counts from zero; the
// last moments of one that exited in between are lost.
func cpuDelta(a, b map[int]uint64) uint64 {
	var d uint64
	for tid, t := range b {
		if t >= a[tid] {
			d += t - a[tid]
		}
	}
	return d
}

// hwmKB reads the peak resident set (VmHWM) of pid in KiB.
func hwmKB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
