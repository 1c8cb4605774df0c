package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// On the shared host the benchmark was tuned on, other guests
// periodically took 10-27% of this VM's CPU time (steal) for six
// minutes or more, and a run inside such an episode read p95 up to
// five times, and p50 up to 1.7 times, its calm value. A run that is
// to report end-to-end figures therefore first waits, for at most
// maxWait, until steal over the last calmSpan is at most calmSteal.
// The waits of all runs in one checkout share waitBudget, kept in a
// ledger file, so that a host that never calms down cannot stretch a
// series of runs without bound.
const (
	calmSteal  = 0.03
	calmSpan   = 5 * time.Second
	maxWait    = 110 * time.Second
	waitBudget = 1200 * time.Second
)

// hostTimes are the whole machine's CPU times from the first line of
// /proc/stat, in clock ticks.
type hostTimes struct{ total, idle, steal uint64 }

// hostCPU reads the machine's CPU times. Steal is the time the
// hypervisor ran something else on this machine's virtual CPUs: the
// sign of a noisy neighbour, reported with every run.
func hostCPU() (hostTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostTimes{}, err
		}
		switch i {
		case 3, 4: // idle, iowait
			h.idle += v
		case 7:
			h.steal = v
		}
		if i < 8 { // guest times are already counted in user and nice
			h.total += v
		}
	}
	return h, nil
}

func (h hostTimes) minus(o hostTimes) hostTimes {
	return hostTimes{h.total - o.total, h.idle - o.idle, h.steal - o.steal}
}

// stealShare is steal time as a share of all CPUs' time.
func (h hostTimes) stealShare() float64 { return float64(h.steal) / float64(max(h.total, 1)) }

// String gives busy and steal time as shares of all CPUs' time.
func (h hostTimes) String() string {
	t := float64(max(h.total, 1))
	return fmt.Sprintf("busy %.1f%% steal %.1f%% of %d CPUs", float64(h.total-h.idle-h.steal)/t*100, h.stealShare()*100, runtime.NumCPU())
}

// waitForCalm samples the machine's CPU times four times per calmSpan
// until the steal share over the last calmSpan is at most calmSteal, or
// until it has waited maxWait or what is left of the checkout's
// waitBudget in ledger. It returns how long it waited and the last
// steal share it saw. Meanwhile every vCPU runs the pattern of a
// lightly loaded server, a 1 ms sleep and then 0.2 ms of work: the
// hypervisor steals from a vCPU when it wakes, so neither an idle
// machine nor a spinning one shows an episode.
func waitForCalm(ctx context.Context, ledger string) (time.Duration, float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	var stop atomic.Bool
	var wakers sync.WaitGroup
	for range runtime.NumCPU() {
		wakers.Add(1)
		go func() {
			defer wakers.Done()
			for !stop.Load() {
				time.Sleep(time.Millisecond)
				for t := time.Now(); time.Since(t) < 200*time.Microsecond; {
				}
			}
		}()
	}
	defer wakers.Wait()
	defer stop.Store(true)
	var spent time.Duration
	b, err := os.ReadFile(ledger)
	switch {
	case err == nil:
		if spent, err = time.ParseDuration(strings.TrimSpace(string(b))); err != nil {
			return 0, 0, fmt.Errorf("wait ledger %s: %w", ledger, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return 0, 0, err
	}
	limit := max(calmSpan, min(maxWait, waitBudget-spent))
	const tick = calmSpan / 4
	start := time.Now()
	// ring holds the samples of the last calmSpan.
	var ring []hostTimes
	share := 1.0
	for {
		h, err := hostCPU()
		if err != nil {
			return 0, 0, err
		}
		if ring = append(ring, h); len(ring) > int(calmSpan/tick)+1 {
			ring = ring[1:]
		}
		if len(ring) == int(calmSpan/tick)+1 {
			share = h.minus(ring[0]).stealShare()
			if share <= calmSteal || time.Since(start) >= limit {
				break
			}
		}
		select {
		case <-ctx.Done():
			return 0, 0, ctx.Err()
		case <-time.After(tick):
		}
	}
	waited := time.Since(start)
	return waited, share, os.WriteFile(ledger, []byte((spent+waited).String()+"\n"), 0o644)
}

// calmBlocks returns the indices, in window order, of the blocks whose
// steal time is at most the median block's: at least half of them, and
// every block when steal was even across the window.
func calmBlocks(host []hostTimes) []int {
	var shares []float64
	for _, h := range host {
		shares = append(shares, h.stealShare())
	}
	med := median(shares)
	var calm []int
	for k, s := range shares {
		if s <= med {
			calm = append(calm, k)
		}
	}
	return calm
}
