package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/dist"
)

// op is one scheduled arrival: a publish (target = topic), a READ or a
// visit (target = session). seq numbers publishes across the whole run.
type op struct {
	at     time.Duration // offset from its phase's start
	seq    int32
	target int32
	rank   float32 // publishes only
}

// poisson draws an open-loop Poisson schedule at perSec over horizon, each
// arrival aimed at a uniformly drawn target in [0, targets).
func poisson(g *dist.RNG, perSec float64, horizon time.Duration, targets int) []op {
	times := dist.PoissonProcess(g, perSec*float64(dist.Day/time.Second), horizon)
	ops := make([]op, len(times))
	for i, at := range times {
		ops[i] = op{at: at, seq: -1, target: int32(g.IntN(targets)), rank: float32(1 + g.IntN(100))}
	}
	return ops
}

// queue hands a schedule to a fixed set of workers in order. A worker
// waits for the head arrival to fall due, then takes it and every later
// arrival already due (up to max), so a slow call delays — and is charged
// with — the arrivals queued behind it.
type queue struct {
	mu    sync.Mutex
	start time.Time
	ops   []op
	next  int
}

func newQueue(start time.Time, ops []op) *queue { return &queue{start: start, ops: ops} }

// take blocks until the head arrival is due and returns the due batch; it
// returns nil once the schedule is exhausted or ctx is done. The lock is
// held while waiting: the other workers would wait for the same arrival.
func (q *queue) take(ctx context.Context, max int) []op {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next >= len(q.ops) {
		return nil
	}
	if d := time.Until(q.start.Add(q.ops[q.next].at)); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	now := time.Since(q.start)
	end := q.next + 1
	for end < len(q.ops) && end-q.next < max && q.ops[end].at <= now {
		end++
	}
	batch := q.ops[q.next:end]
	q.next = end
	return batch
}

// remaining reports how many arrivals were never handed out.
func (q *queue) remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ops) - q.next
}

// worker is one load-generating goroutine's deadline slot: busy holds the
// unix-nanosecond start of its in-flight call (0 when idle) so the monitor
// can fail a call that outlives its deadline without the call's help.
type worker struct{ busy atomic.Int64 }

// drive runs workers goroutines over q until it is exhausted or ctx ends,
// calling do for each due batch and done with its timing; it returns
// once every worker has.
func drive(ctx context.Context, q *queue, slots []*worker, max int,
	do func(w int, batch []op) error, done func(w int, batch []op, sent, end time.Time, err error)) {
	var wg sync.WaitGroup
	for i := range slots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				batch := q.take(ctx, max)
				if batch == nil {
					return
				}
				sent := time.Now()
				slots[i].busy.Store(sent.UnixNano())
				err := do(i, batch)
				end := time.Now()
				slots[i].busy.Store(0)
				done(i, batch, sent, end, err)
			}
		}(i)
	}
	wg.Wait()
}
