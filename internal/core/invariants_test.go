package core

// White-box property tests: drive the proxy with random operation
// sequences and check the structural invariants of Figure 7's queue
// discipline after every step.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// checkInvariants asserts the proxy's structural invariants for a topic.
func checkInvariants(t *testing.T, p *Proxy, topic string, step int) {
	t.Helper()
	ts, ok := p.topics[topic]
	if !ok {
		t.Fatalf("step %d: topic state missing", step)
	}
	now := p.sched.Now()

	// 1. The three queues are pairwise disjoint.
	inOutgoing := ts.outgoing.IDSet()
	inPrefetch := ts.prefetch.IDSet()
	inHolding := ts.holding.IDSet()
	if x := inOutgoing.Intersect(inPrefetch); x.Len() != 0 {
		t.Fatalf("step %d: outgoing ∩ prefetch = %v", step, x)
	}
	if x := inOutgoing.Intersect(inHolding); x.Len() != 0 {
		t.Fatalf("step %d: outgoing ∩ holding = %v", step, x)
	}
	if x := inPrefetch.Intersect(inHolding); x.Len() != 0 {
		t.Fatalf("step %d: prefetch ∩ holding = %v", step, x)
	}

	// 2. Delayed events are in no queue.
	for id := range ts.delayed {
		if inOutgoing.Contains(id) || inPrefetch.Contains(id) || inHolding.Contains(id) {
			t.Fatalf("step %d: delayed event %s also queued", step, id)
		}
	}

	// 3. No expired event sits in any queue (expiry timers are exact in
	// virtual time).
	for _, q := range []*msg.IDSet{&inOutgoing, &inPrefetch, &inHolding} {
		for id := range *q {
			e, ok := ts.known[id]
			if !ok {
				t.Fatalf("step %d: queued event %s unknown", step, id)
			}
			if e.n.Expired(now) {
				t.Fatalf("step %d: expired event %s still queued", step, id)
			}
		}
	}

	// 4. Forwarded events never sit in prefetch or holding (outgoing is
	// allowed: rank-revision signals).
	for id, e := range ts.known {
		if e.forwarded && (inPrefetch.Contains(id) || inHolding.Contains(id)) {
			t.Fatalf("step %d: forwarded event %s still prefetchable", step, id)
		}
	}

	// 5. The event table and the history are the same set of the same
	// size (with invariant 3, every queued event is remembered), and the
	// forwarded counter matches the records flagged forwarded.
	checkEventTable(t, ts, step)

	// 6. Below-threshold events are never queued for prefetch; holding
	// and prefetch entries all meet the rank threshold.
	for _, set := range []msg.IDSet{inPrefetch, inHolding} {
		for id := range set {
			if ts.known[id].n.Rank < ts.cfg.RankThreshold {
				t.Fatalf("step %d: below-threshold event %s queued", step, id)
			}
		}
	}

	// 7. The queue-size view never goes negative.
	if ts.queueSize < 0 {
		t.Fatalf("step %d: negative queue view %d", step, ts.queueSize)
	}

	// 8. The network gate: with the network up and the Buffer policy,
	// the prefetch queue only retains events when the view is at the
	// limit (otherwise try_forwarding would have drained more).
	if p.networkUp && ts.cfg.Policy == Buffer && ts.prefetch.Len() > 0 && ts.queueSize < ts.prefetchLimit {
		t.Fatalf("step %d: prefetch stalled with room (view %d < limit %d, %d queued)",
			step, ts.queueSize, ts.prefetchLimit, ts.prefetch.Len())
	}
	// 9. With the network up the outgoing queue is always drained.
	if p.networkUp && ts.outgoing.Len() > 0 {
		t.Fatalf("step %d: outgoing not drained while network up", step)
	}
}

// checkEventTable asserts the lockstep rule of a topic's event table: the
// history ring and the known keys are one set of one size, each record
// holds the content of its own ID, and the forwarded counter equals the
// number of records flagged forwarded.
func checkEventTable(t *testing.T, ts *topicState, step int) {
	t.Helper()
	ring := ts.history.IDs()
	if len(ring) != ts.history.Len() || len(ring) != len(ts.known) {
		t.Fatalf("step %d: history holds %d IDs (Len %d), known %d records", step, len(ring), ts.history.Len(), len(ts.known))
	}
	seen := make(msg.IDSet, len(ring))
	for _, id := range ring {
		if !seen.Add(id) {
			t.Fatalf("step %d: %s twice in the history", step, id)
		}
		e, ok := ts.known[id]
		if !ok || e.n == nil || e.n.ID != id {
			t.Fatalf("step %d: history ID %s has record %+v", step, id, e)
		}
	}
	flagged := 0
	for _, e := range ts.known {
		if e.forwarded {
			flagged++
		}
	}
	if flagged != ts.forwarded {
		t.Fatalf("step %d: forwarded counter %d, %d records flagged", step, ts.forwarded, flagged)
	}
}

// applyRandomOp drives one random proxy input, returning the device's
// notion of its queue so reads can be plausible.
func applyRandomOp(t *testing.T, rng *rand.Rand, clock testClock, p *Proxy, dev *fakeDevice, next *int) {
	t.Helper()
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // arrival
		id := msg.ID(fmt.Sprintf("p%04d", *next))
		*next++
		n := &msg.Notification{
			ID: id, Topic: "t",
			Rank:      float64(rng.Intn(100)) / 10,
			Published: clock.Now(),
		}
		if rng.Intn(2) == 0 {
			n.Expires = clock.Now().Add(time.Duration(1+rng.Intn(5000)) * time.Second)
		}
		p.Notify(n)
	case 4: // rank revision of a random known event
		if *next > 0 {
			id := msg.ID(fmt.Sprintf("p%04d", rng.Intn(*next)))
			p.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: id, NewRank: float64(rng.Intn(100)) / 10})
		}
	case 5: // network flap
		p.SetNetwork(rng.Intn(2) == 0)
	case 6, 7: // device read with a plausible request
		have := len(dev.received)
		if have > 8 {
			have = 8
		}
		events := make([]msg.ID, 0, have)
		for _, n := range dev.received[len(dev.received)-have:] {
			events = append(events, n.ID)
		}
		req := msg.ReadRequest{Topic: "t", N: 8, QueueSize: len(events), ClientEvents: events}
		if err := p.Read(req); err != nil {
			t.Fatalf("read: %v", err)
		}
	case 8, 9: // time passes (expiry and delay timers fire)
		clock.Advance(time.Duration(rng.Intn(3600)) * time.Second)
	}
}

func TestProxyInvariantsUnderRandomOps(t *testing.T) {
	configs := map[string]TopicConfig{
		"online":    OnlineConfig("t"),
		"on-demand": OnDemandConfig("t", 8),
		"buffer":    BufferConfig("t", 8, 16),
		"rate":      RateConfig("t", 8),
		"unified":   UnifiedConfig("t", 8),
		"unified-threshold-delay": func() TopicConfig {
			cfg := UnifiedConfig("t", 8)
			cfg.RankThreshold = 3
			cfg.Delay = 5 * time.Minute
			return cfg
		}(),
		// A history smaller than the arrivals: evictions forget forwarded
		// and staged events alike while the table must stay in lockstep.
		"buffer-evicting": func() TopicConfig {
			cfg := BufferConfig("t", 8, 16)
			cfg.HistoryLimit = 24
			return cfg
		}(),
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				clock := newTestClock(t0)
				dev := &fakeDevice{}
				p := New(clock, dev)
				if err := p.AddTopic(cfg); err != nil {
					t.Fatal(err)
				}
				next := 0
				for step := 0; step < 400; step++ {
					applyRandomOp(t, rng, clock, p, dev, &next)
					checkInvariants(t, p, "t", step)
				}
			}
		})
	}
}

// TestProxyInvariantsWithFailingDevice injects forward failures into the
// random workload; the invariants must hold through requeues and
// network-down transitions.
func TestProxyInvariantsWithFailingDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	clock := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(clock, dev)
	if err := p.AddTopic(BufferConfig("t", 8, 16)); err != nil {
		t.Fatal(err)
	}
	next := 0
	for step := 0; step < 600; step++ {
		dev.fail = rng.Intn(5) == 0
		applyRandomOp(t, rng, clock, p, dev, &next)
		dev.fail = false
		// Invariants 8/9 assume forwarding succeeded; re-kick the
		// network to restore the drained state before checking.
		if p.NetworkUp() {
			p.SetNetwork(true)
		}
		checkInvariants(t, p, "t", step)
	}
}
