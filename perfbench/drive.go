package main

import (
	"context"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request of the measured window.
type outcome struct {
	status int
	body   []byte
	err    error
	// latency runs from the clock start to the last body byte; lag is
	// how late the request left against its due instant.
	latency time.Duration
	lag     time.Duration
}

// drive sends stream open-loop at rate requests per second over at
// most conns connections, the i-th request due at start + i/rate, and
// returns the outcomes and the time from start until the last one.
//
// Clock rule: a worker that picks up a request before it is due sleeps
// until the due instant and starts the clock when it wakes, so the
// timer's oversleep is not charged to the server. A worker that picks
// it up late (every connection was busy past the due instant) starts
// the clock at the due instant, so a stalled server pays for the queue
// it caused.
func drive(ctx context.Context, client *http.Client, url func(request) string, stream []request, rate float64, conns int, start time.Time) (out []outcome, window time.Duration) {
	out = make([]outcome, len(stream))
	// The generator shares the servers' clock: a collection in this
	// process while responses arrive would be timed as server latency.
	// A window allocates a few tens of MB, so collect once before it
	// and not during it.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				clock := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					clock = time.Now()
				}
				o := &out[i]
				o.lag = time.Since(due)
				o.status, o.body, o.err = post(ctx, client, url(stream[i]), stream[i].body)
				o.latency = time.Since(clock)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
