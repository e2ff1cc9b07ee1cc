package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"lasthop/internal/dist"
)

// TestPoissonRateAndDeterminism: the schedule hits its rate within
// tolerance, is identical for one seed and differs for another.
func TestPoissonRateAndDeterminism(t *testing.T) {
	const rate, horizon = 5000.0, 20 * time.Second
	a := poisson(dist.New(7), rate, horizon, 8)
	b := poisson(dist.New(7), rate, horizon, 8)
	c := poisson(dist.New(8), rate, horizon, 8)
	want := rate * horizon.Seconds()
	// The count is Poisson(want): 4 standard deviations is ~0.6%.
	if got := float64(len(a)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want %v ± %v", got, want, 4*math.Sqrt(want))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrival %d out of order", i)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
	// Phases planned from one seed are the same inputs run after run.
	w, _ := lookupWorkload("ondemand-reads")
	specs := []spec{{name: "warmup", mult: 1, dur: time.Second}, {name: "fixed", mult: 1, dur: 2 * time.Second}}
	p1, p2 := plan(w, 3, specs), plan(w, 3, specs)
	for i := range p1 {
		if len(p1[i].pubs) != len(p2[i].pubs) || len(p1[i].reads) != len(p2[i].reads) {
			t.Fatalf("phase %s planned differently for one seed", p1[i].name)
		}
	}
}

// TestStallChargesQueuedArrivals: an injected stall in a fake sink raises
// the measured latency of every arrival queued behind it, because latency
// is timed from the schedule, not from the send.
func TestStallChargesQueuedArrivals(t *testing.T) {
	const gap, stall = 2 * time.Millisecond, 60 * time.Millisecond
	var ops []op
	for i := 0; i < 100; i++ {
		ops = append(ops, op{at: time.Duration(i) * gap, seq: int32(i)})
	}
	start := time.Now().Add(5 * time.Millisecond)
	q := newQueue(start, ops)
	lat := make([]time.Duration, len(ops))
	var stallEnd atomic.Int64
	drive(context.Background(), q, []*worker{{}}, 8,
		func(_ int, batch []op) error {
			if batch[len(batch)-1].seq >= 20 && stallEnd.Load() == 0 {
				time.Sleep(stall) // the sink wedges once, mid-schedule
				stallEnd.Store(time.Now().UnixNano())
			}
			return nil
		},
		func(_ int, batch []op, _, end time.Time, _ error) {
			for _, o := range batch {
				lat[o.seq] = end.Sub(start.Add(o.at))
			}
		})
	if q.remaining() != 0 {
		t.Fatalf("%d arrivals never handed out", q.remaining())
	}
	// Every arrival due before the stall ended waited for it: the one
	// worker was blocked, so its latency is at least the rest of the stall
	// from its due time — far more than arrivals before the stall saw.
	end := time.Unix(0, stallEnd.Load())
	behind := 0
	for i, o := range ops {
		due := start.Add(o.at)
		if i < 20 || !due.Before(end) {
			continue
		}
		behind++
		if want := end.Sub(due); lat[i] < want {
			t.Fatalf("arrival %d queued behind the stall measured %v, want >= %v", i, lat[i], want)
		}
	}
	if behind < 10 {
		t.Fatalf("only %d arrivals fell due during a %v stall", behind, stall)
	}
	for i := 0; i < 10; i++ { // batches hold at most 8, so these finished before it
		if lat[i] >= stall/2 {
			t.Fatalf("arrival %d before the stall measured %v", i, lat[i])
		}
	}
}
