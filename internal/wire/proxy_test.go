package wire_test

// End-to-end tests of the device protocol against the proxy host: a
// broker server, a one-session host.Host chained to it, and device
// clients. They live in the external test package because internal/host
// builds on this one.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"lasthop/internal/host"
	"lasthop/internal/mobility"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// harness is a broker server with a proxy host chained to it.
type harness struct {
	broker     *wire.BrokerServer
	pubsub     *pubsub.Broker
	host       *host.Host
	brokerAddr string
	proxyAddr  string
}

// newHarness starts a broker server and a one-worker proxy host chained
// to it.
func newHarness(t *testing.T) *harness {
	t.Helper()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps := pubsub.NewBroker("test-broker")
	bs := wire.NewBrokerServer(ps, t.Logf)
	go func() { _ = bs.Serve(bl) }()

	h, err := host.New(host.Options{BrokerAddr: bl.Addr().String(), Name: "test-proxy", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.Serve(pl) }()
	t.Cleanup(func() {
		h.Close()
		bs.Close()
	})
	return &harness{
		broker:     bs,
		pubsub:     ps,
		host:       h,
		brokerAddr: bl.Addr().String(),
		proxyAddr:  pl.Addr().String(),
	}
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

// rawDevice speaks the device protocol over a bare Conn so tests control
// exactly which capabilities the hello advertises.
type rawDevice struct {
	conn *wire.Conn
}

func dialRawDevice(t *testing.T, addr string, caps []string) *rawDevice {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	t.Cleanup(func() { _ = conn.Close() })
	if err := wire.SyncExchange(conn, &wire.Frame{Type: wire.TypeHello, Name: "raw-device", Caps: caps}, nil); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return &rawDevice{conn: conn}
}

func (d *rawDevice) subscribe(t *testing.T, topic string, pol wire.TopicPolicy) {
	t.Helper()
	if err := wire.SyncExchange(d.conn, &wire.Frame{Type: wire.TypeSubscribe, Topic: topic, TopicPolicy: &pol}, nil); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
}

// read issues one §3.5 READ and returns how the transferred burst was
// framed: single-push frames, batch frames, and total notifications.
func (d *rawDevice) read(t *testing.T, topic string, n int) (singles, batches, total int) {
	t.Helper()
	seq, err := d.conn.SendRequest(&wire.Frame{Type: wire.TypeRead, Read: &msg.ReadRequest{Topic: topic, N: n}})
	if err != nil {
		t.Fatalf("read request: %v", err)
	}
	for {
		f, err := d.conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch {
		case f.Re == seq && f.Type == wire.TypeErr:
			t.Fatalf("read rejected: %s %s", f.Code, f.Message)
		case f.Re == seq && f.Type == wire.TypeOK:
			return singles, batches, total
		case f.Type == wire.TypePush:
			singles++
			total++
		case f.Type == wire.TypePushBatch:
			batches++
			total += len(f.Batch)
		}
	}
}

// publishBurst spools count notifications on the proxy's topic.
func publishBurst(t *testing.T, h *harness, topic string, count int) {
	t.Helper()
	pub, err := wire.DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise(topic, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("b%02d", i)), topic, float64(1+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "proxy spool", func() bool {
		snap, ok := h.host.SessionSnapshot("raw-device", topic)
		return ok && snap.Prefetch == count
	})
}

// TestReadBurstArrivesBatched: a device that negotiated push-batch gets an
// on-demand READ burst coalesced into batch frames, not n single pushes.
func TestReadBurstArrivesBatched(t *testing.T) {
	h := newHarness(t)
	dev := dialRawDevice(t, h.proxyAddr, wire.LocalCaps())
	dev.subscribe(t, "news", wire.TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 10)

	singles, batches, total := dev.read(t, "news", 0)
	if total != 10 {
		t.Fatalf("read transferred %d notifications, want 10", total)
	}
	if batches == 0 {
		t.Errorf("burst arrived without any push-batch frame (%d singles)", singles)
	}
	if singles != 0 {
		t.Errorf("burst used %d single pushes alongside %d batches", singles, batches)
	}
}

// TestSmallFramesKeepInitialReadBuffer: a session whose traffic is a
// hello, a subscribe, a READ and a small burst never fills a read, so its
// connection keeps the small initial read buffer.
func TestSmallFramesKeepInitialReadBuffer(t *testing.T) {
	h := newHarness(t)
	dev := dialRawDevice(t, h.proxyAddr, wire.LocalCaps())
	dev.subscribe(t, "news", wire.TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 10)
	if _, _, total := dev.read(t, "news", 0); total != 10 {
		t.Fatalf("read transferred %d notifications, want 10", total)
	}
	if got := wire.ReadBufferSize(dev.conn); got != wire.InitialReadBufferBytes {
		t.Fatalf("read buffer grew to %d bytes on small frames, want %d", got, wire.InitialReadBufferBytes)
	}
}

// TestLegacyDeviceGetsSinglePushes: a hello without the push-batch
// capability must make the proxy fall back to one push frame per
// notification, so old devices keep working.
func TestLegacyDeviceGetsSinglePushes(t *testing.T) {
	h := newHarness(t)
	dev := dialRawDevice(t, h.proxyAddr, nil)
	dev.subscribe(t, "news", wire.TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 10)

	singles, batches, total := dev.read(t, "news", 0)
	if total != 10 {
		t.Fatalf("read transferred %d notifications, want 10", total)
	}
	if batches != 0 {
		t.Errorf("legacy device received %d push-batch frames", batches)
	}
	if singles != 10 {
		t.Errorf("legacy device received %d single pushes, want 10", singles)
	}
}

// traceBroker attaches a head-sampling collector (rate 1) to the harness
// broker so every publish mints a context.
func traceBroker(t *testing.T, h *harness) *trace.Collector {
	t.Helper()
	col := trace.NewCollector("test-broker", trace.NewSampler(1), 64)
	h.pubsub.SetTracer(col)
	return col
}

// readTraced issues one READ and reports how many of the transferred
// notifications carried a trace context alongside the total.
func (d *rawDevice) readTraced(t *testing.T, topic string, n int) (withCtx, total int) {
	t.Helper()
	seq, err := d.conn.SendRequest(&wire.Frame{Type: wire.TypeRead, Read: &msg.ReadRequest{Topic: topic, N: n}})
	if err != nil {
		t.Fatalf("read request: %v", err)
	}
	for {
		f, err := d.conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch {
		case f.Re == seq && f.Type == wire.TypeErr:
			t.Fatalf("read rejected: %s %s", f.Code, f.Message)
		case f.Re == seq && f.Type == wire.TypeOK:
			return withCtx, total
		case f.Type == wire.TypePush:
			total++
			if f.Trace != nil {
				withCtx++
			}
		case f.Type == wire.TypePushBatch:
			total += len(f.Batch)
			for _, tc := range f.Traces {
				if tc != nil {
					withCtx++
				}
			}
		}
	}
}

// TestTraceContextReachesCapableDevice: with tracing on at the broker and
// CapTrace negotiated on every hop, the context minted at publish accept
// arrives at the device on each transferred notification.
func TestTraceContextReachesCapableDevice(t *testing.T) {
	h := newHarness(t)
	traceBroker(t, h)
	dev := dialRawDevice(t, h.proxyAddr, wire.LocalCaps())
	dev.subscribe(t, "news", wire.TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 6)

	withCtx, total := dev.readTraced(t, "news", 0)
	if total != 6 {
		t.Fatalf("read transferred %d notifications, want 6", total)
	}
	if withCtx != 6 {
		t.Errorf("only %d of %d notifications carried a trace context", withCtx, total)
	}
}

// TestLegacyDeviceDropsTraceContext: a device hello without CapTrace must
// make the proxy strip contexts from its pushes — the notifications still
// arrive, just untraced.
func TestLegacyDeviceDropsTraceContext(t *testing.T) {
	h := newHarness(t)
	col := traceBroker(t, h)
	dev := dialRawDevice(t, h.proxyAddr, []string{wire.CapPushBatch})
	dev.subscribe(t, "news", wire.TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 6)

	withCtx, total := dev.readTraced(t, "news", 0)
	if total != 6 {
		t.Fatalf("read transferred %d notifications, want 6", total)
	}
	if withCtx != 0 {
		t.Errorf("legacy device received %d trace contexts, want 0", withCtx)
	}
	// The contexts were really minted upstream — the drop happened at the
	// proxy's device hop, not at the sampler.
	if st := col.Stats(); st.Sampled == 0 {
		t.Error("broker sampled no traces; the test never exercised the drop path")
	}
}

func TestEndToEndReadProtocol(t *testing.T) {
	h := newHarness(t)
	pub, err := wire.DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	dev, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", wire.TopicPolicy{Policy: "on-demand", Max: 2}); err != nil {
		t.Fatal(err)
	}

	for i, rank := range []float64{1, 5, 3, 4, 2} {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("n%d", i)), "news", rank)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the proxy has spooled everything.
	waitFor(t, "proxy spool", func() bool {
		snap, ok := h.host.SessionSnapshot("phone", "news")
		return ok && snap.Prefetch == 5
	})

	batch, err := dev.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "n1" || batch[1].ID != "n3" {
		t.Fatalf("read %v, want the two highest-ranked", batch)
	}
	// A second read must fetch the next-best, not retransfer read ones.
	batch, err = dev.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "n2" || batch[1].ID != "n4" {
		t.Fatalf("second read %v", batch)
	}
}

func TestDisconnectedDeviceSpools(t *testing.T) {
	h := newHarness(t)
	pub, err := wire.DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	dev, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe("news", wire.TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	// Go offline: the proxy must treat this as a network outage.
	_ = dev.Close()
	waitFor(t, "proxy to notice disconnect", func() bool {
		snap, ok := h.host.SessionSnapshot("phone", "news")
		return ok && snap.QueueSizeView == 0
	})

	for i := 0; i < 4; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("n%d", i)), "news", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "spool while offline", func() bool {
		snap, ok := h.host.SessionSnapshot("phone", "news")
		return ok && snap.Prefetch == 4
	})

	// Reconnect: prefetching resumes (limit 10 swallows everything).
	dev2, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	waitFor(t, "catch-up prefetch", func() bool { return dev2.QueueLen("news") == 4 })

	batch, err := dev2.Read("news", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("read %d messages after reconnect, want 4", len(batch))
	}
}

func TestRankDropReachesDevice(t *testing.T) {
	h := newHarness(t)
	pub, err := wire.DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	dev, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", wire.TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10, Threshold: 2}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("spam", "news", 5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "prefetch", func() bool { return dev.QueueLen("news") == 1 })
	if err := pub.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "spam", NewRank: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank drop applied", func() bool { return dev.QueueLen("news") == 0 })
	_, _, drops := dev.Stats()
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
}

func TestDeviceRedialKeepsCacheAndSubscriptions(t *testing.T) {
	h := newHarness(t)
	pub, err := wire.DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	dev, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", wire.TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("cached", "news", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "prefetch before drop", func() bool { return dev.QueueLen("news") == 1 })

	// The radio drops: the device keeps its cache and redials (a new
	// accepted connection replaces the stale one on the proxy side).
	wire.DropConn(dev)
	if err := dev.Redial(h.proxyAddr); err != nil {
		t.Fatal(err)
	}
	if dev.QueueLen("news") != 1 {
		t.Fatalf("redial lost the cache: %d", dev.QueueLen("news"))
	}
	// The automatic resubscription restores push delivery.
	if err := pub.Publish(wireNote("fresh", "news", 4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push after redial", func() bool { return dev.QueueLen("news") == 2 })

	batch, err := dev.Read("news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("read %d after redial, want 2", len(batch))
	}
}

func TestProxyRejectsUnknownPolicy(t *testing.T) {
	h := newHarness(t)
	dev, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", wire.TopicPolicy{Policy: "telepathy"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := dev.Subscribe("news", wire.TopicPolicy{Mode: "sideways"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := dev.Unsubscribe("never-subscribed"); err == nil {
		t.Error("unsubscribe of unknown topic accepted")
	}
}

func TestDeviceMobilityDrivesWireSubscriptions(t *testing.T) {
	h := newHarness(t)
	pub, err := wire.DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for _, city := range []string{"oslo", "tromso"} {
		if err := pub.Advertise("traffic/"+city, ""); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := wire.DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	tracker := mobility.NewTracker(wire.NewDeviceMobility(dev), "phone")
	rule := mobility.Rule{
		Name:          "traffic",
		TopicTemplate: "traffic/${city}",
		Options:       msg.SubscriptionOptions{Max: 4, Mode: msg.OnLine},
	}
	if err := tracker.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if err := tracker.UpdateContext(mobility.Context{"city": "oslo"}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("o1", "traffic/oslo", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oslo alert", func() bool { return dev.QueueLen("traffic/oslo") == 1 })

	// Moving re-subscribes over the wire.
	if err := tracker.UpdateContext(mobility.Context{"city": "tromso"}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("t1", "traffic/tromso", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tromso alert", func() bool { return dev.QueueLen("traffic/tromso") == 1 })
	// The old city's topic is gone from the proxy.
	if _, ok := h.host.SessionSnapshot("phone", "traffic/oslo"); ok {
		t.Error("old city still registered on the proxy")
	}
}

// TestDurableProxySurvivesRestart kills a spooling host with two kinds of
// unforwarded state — a disconnected session's spooled notifications and
// a connected session's arrivals queued for an on-demand READ — and
// restarts it on the same spool: both sessions serve everything, and the
// upstream subscription is re-established.
func TestDurableProxySurvivesRestart(t *testing.T) {
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := wire.NewBrokerServer(pubsub.NewBroker("broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()
	dir := t.TempDir()

	startHost := func() (*host.Host, string) {
		t.Helper()
		h, err := host.New(host.Options{
			BrokerAddr:     bl.Addr().String(),
			Name:           "durable-proxy",
			Workers:        1,
			SpoolDir:       dir,
			HibernateAfter: time.Hour, // both sessions stay resident
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = h.Serve(pl) }()
		return h, pl.Addr().String()
	}

	pub, err := wire.DialBroker(bl.Addr().String(), "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	// First life: "away" subscribes and disconnects, "here" stays
	// connected on an on-demand topic; two messages arrive, then the
	// process dies.
	h1, addr1 := startHost()
	away, err := wire.DialProxy(addr1, "away")
	if err != nil {
		t.Fatal(err)
	}
	if err := away.Subscribe("news", wire.TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	_ = away.Close()
	waitFor(t, "device disconnect", func() bool {
		snap, ok := h1.SessionSnapshot("away", "news")
		return ok && snap.QueueSizeView == 0
	})
	ondemand := wire.TopicPolicy{Policy: "on-demand", Max: 4}
	here, err := wire.DialProxy(addr1, "here")
	if err != nil {
		t.Fatal(err)
	}
	defer here.Close()
	if err := here.Subscribe("news", ondemand); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("s%d", i)), "news", float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"away", "here"} {
		waitFor(t, name+" queued both", func() bool {
			snap, ok := h1.SessionSnapshot(name, "news")
			return ok && snap.Prefetch == 2
		})
	}
	h1.Kill() // crash: no shutdown path runs

	// Second life: the spool restores both sessions and the upstream
	// subscription.
	h2, addr2 := startHost()
	defer h2.Close()
	if got := len(h2.Sessions()); got != 2 {
		t.Fatalf("restarted host recovered %d sessions, want 2", got)
	}
	away2, err := wire.DialProxy(addr2, "away")
	if err != nil {
		t.Fatal(err)
	}
	defer away2.Close()
	waitFor(t, "post-restart catch-up", func() bool { return away2.QueueLen("news") == 2 })

	here2, err := wire.DialProxy(addr2, "here")
	if err != nil {
		t.Fatal(err)
	}
	defer here2.Close()
	if err := here2.Subscribe("news", ondemand); err != nil {
		t.Fatal(err)
	}
	batch, err := here2.Read("news", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("resident session served %d after the restart, want 2", len(batch))
	}

	// New traffic still flows (the upstream resubscription worked).
	if err := pub.Publish(wireNote("s2", "news", 5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fresh push after restart", func() bool { return away2.QueueLen("news") == 3 })
}
