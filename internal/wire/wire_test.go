package wire

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
)

// harness is a broker server for the broker-side tests; the tests that
// need a proxy run against the host in the external wire_test package.
type harness struct {
	broker     *BrokerServer
	brokerAddr string
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("test-broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	t.Cleanup(bs.Close)
	return &harness{broker: bs, brokerAddr: bl.Addr().String()}
}

func wireNote(id msg.ID, topic string, rank float64) *msg.Notification {
	return &msg.Notification{
		ID: id, Topic: topic, Rank: rank,
		Published: time.Now(),
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBrokerClientRoundTrip(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := DialBroker(h.brokerAddr, "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var mu sync.Mutex
	var got []*msg.Notification
	var updates []msg.RankUpdate
	sub.OnPush(
		// The pushed notification is pool-owned; a consumer that retains it
		// keeps a clone and returns the original.
		func(n *msg.Notification) { mu.Lock(); got = append(got, n.Clone()); mu.Unlock(); burst.Notes.Put(n) },
		func(u msg.RankUpdate) { mu.Lock(); updates = append(updates, u); mu.Unlock() },
	)
	if err := sub.Subscribe(msg.Subscription{Topic: "news", Options: msg.SubscriptionOptions{Max: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "news", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "notification push", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	if err := pub.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "n1", NewRank: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank update push", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(updates) == 1
	})
}

func TestBrokerErrors(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(wireNote("n1", "ghost", 3)); err == nil {
		t.Error("publish on unadvertised topic accepted")
	}
	if err := pub.Advertise("t", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "t", 3)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "t", 3)); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := pub.Unsubscribe("nothing"); err == nil {
		t.Error("unsubscribe without subscription accepted")
	}
}

// federatedPair spins up two broker servers joined by a wire federation
// edge.
func federatedPair(t *testing.T) (aAddr, bAddr string, shutdown func()) {
	t.Helper()
	mk := func(name string) (*BrokerServer, *pubsub.Broker, net.Listener) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := pubsub.NewBroker(name)
		srv := NewBrokerServer(b, t.Logf)
		go func() { _ = srv.Serve(l) }()
		return srv, b, l
	}
	srvA, brokerA, la := mk("broker-a")
	srvB, _, lb := mk("broker-b")
	fed, err := FederateBroker(brokerA, lb.Addr().String(), "broker-a", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return la.Addr().String(), lb.Addr().String(), func() {
		_ = fed.Close()
		srvA.Close()
		srvB.Close()
	}
}

func TestFederationOverTCP(t *testing.T) {
	aAddr, bAddr, shutdown := federatedPair(t)
	defer shutdown()

	// Publisher on A, subscriber on B: notifications cross the wire edge.
	pub, err := DialBroker(aAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := DialBroker(bAddr, "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var mu sync.Mutex
	var got []*msg.Notification
	var updates []msg.RankUpdate
	sub.OnPush(
		func(n *msg.Notification) { mu.Lock(); got = append(got, n.Clone()); mu.Unlock(); burst.Notes.Put(n) },
		func(u msg.RankUpdate) { mu.Lock(); updates = append(updates, u); mu.Unlock() },
	)
	if err := sub.Subscribe(msg.Subscription{Topic: "news", Options: msg.SubscriptionOptions{Max: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	// The subscription interest needs a moment to cross the overlay.
	waitFor(t, "cross-broker delivery", func() bool {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("n%d", time.Now().UnixNano())), "news", 3)); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0
	})
	// Rank updates cross too.
	mu.Lock()
	firstID := got[0].ID
	mu.Unlock()
	if err := pub.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: firstID, NewRank: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cross-broker rank update", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(updates) == 1
	})
}

func TestFederationQuenchOverTCP(t *testing.T) {
	aAddr, bAddr, shutdown := federatedPair(t)
	defer shutdown()
	pub, err := DialBroker(aAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	sub, err := DialBroker(bAddr, "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var mu sync.Mutex
	count := 0
	sub.OnPush(func(n *msg.Notification) { mu.Lock(); count++; mu.Unlock(); burst.Notes.Put(n) }, nil)
	if err := sub.Subscribe(msg.Subscription{Topic: "news", Options: msg.SubscriptionOptions{Max: 8}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first cross-broker delivery", func() bool {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("q%d", time.Now().UnixNano())), "news", 3)); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return count > 0
	})
	// After the subscriber leaves, the interest is quenched across the
	// wire: the count stops growing.
	if err := sub.Unsubscribe("news"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the quench cross
	mu.Lock()
	before := count
	mu.Unlock()
	for i := 0; i < 5; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("after%d", i)), "news", 3)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	after := count
	mu.Unlock()
	if after != before {
		t.Errorf("deliveries after quench: %d -> %d", before, after)
	}
}

func TestTopicPolicyToConfig(t *testing.T) {
	cfg, err := TopicPolicy{}.ToConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.AutoPrefetchLimit || !cfg.AutoExpirationThreshold {
		t.Error("empty policy should map to the unified configuration")
	}
	cfg, err = TopicPolicy{Policy: "buffer", PrefetchLimit: 42, Max: 8, Threshold: 2.5, DelaySeconds: 60}.ToConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PrefetchLimit != 42 || cfg.AutoPrefetchLimit || cfg.RankThreshold != 2.5 ||
		cfg.ReadSize != 8 || cfg.Delay != time.Minute {
		t.Errorf("cfg = %+v", cfg)
	}
	if _, err := (TopicPolicy{Policy: "nope"}).ToConfig("t"); err == nil {
		t.Error("bad policy accepted")
	}
	cfg, err = TopicPolicy{Mode: "on-line"}.ToConfig("t")
	if err != nil || cfg.Mode != msg.OnLine {
		t.Errorf("on-line mode mapping: %+v, %v", cfg, err)
	}
	cfg, err = TopicPolicy{
		Mode:           "on-line",
		DailyOnlineCap: 10,
		InterruptRank:  4.5,
		QuietWindows:   []QuietWindowSpec{{StartMinutes: 540, EndMinutes: 600}},
	}.ToConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DailyOnlineCap != 10 || cfg.InterruptRank != 4.5 || len(cfg.Quiet) != 1 ||
		cfg.Quiet[0].Start != 9*time.Hour || cfg.Quiet[0].End != 10*time.Hour {
		t.Errorf("hybrid delivery mapping: %+v", cfg)
	}
	// Start > End wraps around midnight and is valid (e.g. 22:00-07:00).
	cfg, err = (TopicPolicy{QuietWindows: []QuietWindowSpec{{StartMinutes: 1320, EndMinutes: 420}}}).ToConfig("t")
	if err != nil {
		t.Errorf("overnight quiet window rejected: %v", err)
	} else if cfg.Quiet[0].Start != 22*time.Hour || cfg.Quiet[0].End != 7*time.Hour {
		t.Errorf("overnight quiet window mapping: %+v", cfg.Quiet)
	}
	if _, err := (TopicPolicy{QuietWindows: []QuietWindowSpec{{StartMinutes: 600, EndMinutes: 600}}}).ToConfig("t"); err == nil {
		t.Error("empty quiet window accepted")
	}
	// History bounds pass through: an explicit limit is honored, zero
	// keeps the core default, and negative means unbounded (core maps it
	// at withDefaults time, so it must survive ToConfig untouched).
	cfg, err = TopicPolicy{HistoryLimit: 4}.ToConfig("t")
	if err != nil || cfg.HistoryLimit != 4 {
		t.Errorf("HistoryLimit mapping: %+v, %v", cfg, err)
	}
	cfg, err = TopicPolicy{}.ToConfig("t")
	if err != nil || cfg.HistoryLimit != 0 {
		t.Errorf("default HistoryLimit mapping: %+v, %v", cfg, err)
	}
	cfg, err = TopicPolicy{HistoryLimit: -1}.ToConfig("t")
	if err != nil || cfg.HistoryLimit != -1 {
		t.Errorf("unbounded HistoryLimit mapping: %+v, %v", cfg, err)
	}
}
