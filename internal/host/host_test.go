package host

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/pubsub"
	"lasthop/internal/wire"
)

// testTopology is a broker + host pair with helpers to attach devices.
type testTopology struct {
	t          *testing.T
	broker     *pubsub.Broker
	bs         *wire.BrokerServer
	host       *Host
	brokerAddr string
	addr       string // host listener address
}

func newTopology(t *testing.T, opts Options) *testTopology {
	t.Helper()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker("test-broker")
	bs := wire.NewBrokerServer(broker, nil)
	go func() { _ = bs.Serve(bl) }()
	t.Cleanup(bs.Close)

	opts.BrokerAddr = bl.Addr().String()
	if opts.Name == "" {
		opts.Name = "test-host"
	}
	h, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.Serve(hl) }()
	return &testTopology{
		t: t, broker: broker, bs: bs, host: h,
		brokerAddr: bl.Addr().String(), addr: hl.Addr().String(),
	}
}

func (tt *testTopology) device(name string) *wire.DeviceClient {
	tt.t.Helper()
	dev, err := wire.DialProxy(tt.addr, name)
	if err != nil {
		tt.t.Fatalf("dial device %s: %v", name, err)
	}
	tt.t.Cleanup(func() { _ = dev.Close() })
	return dev
}

func (tt *testTopology) publisher(name string) *wire.BrokerClient {
	tt.t.Helper()
	pub, err := wire.DialBroker(tt.brokerAddr, name)
	if err != nil {
		tt.t.Fatalf("dial publisher: %v", err)
	}
	tt.t.Cleanup(func() { _ = pub.Close() })
	return pub
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHostMultiplexesUpstreamSubscriptions pins the tentpole's mux
// invariant: however many sessions subscribe to a topic — including
// subscribe/unsubscribe churn and device disconnects — the broker sees
// exactly one subscription, held by the host, and it is dropped only when
// the last reference goes.
func TestHostMultiplexesUpstreamSubscriptions(t *testing.T) {
	tt := newTopology(t, Options{Workers: 2})
	const topic = "mux/t"

	devs := make([]*wire.DeviceClient, 5)
	for i := range devs {
		devs[i] = tt.device(fmt.Sprintf("mux-dev-%d", i))
		if err := devs[i].Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	if got := tt.broker.Subscribers(topic); len(got) != 1 || got[0] != "test-host" {
		t.Fatalf("broker subscribers = %v, want exactly [test-host]", got)
	}
	if refs := tt.host.TopicRefs(topic); refs != 5 {
		t.Fatalf("TopicRefs = %d, want 5", refs)
	}

	// Re-subscribing is idempotent: no double-counted reference.
	if err := devs[0].Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
		t.Fatal(err)
	}
	if refs := tt.host.TopicRefs(topic); refs != 5 {
		t.Fatalf("TopicRefs after re-subscribe = %d, want 5", refs)
	}

	// A device disconnect keeps the session, its spooling proxy, and its
	// upstream reference.
	_ = devs[4].Close()
	waitFor(t, "session 4 detach", func() bool {
		for _, s := range tt.host.Sessions() {
			if s.Name == "mux-dev-4" {
				return !s.Connected
			}
		}
		return false
	})
	if refs := tt.host.TopicRefs(topic); refs != 5 {
		t.Fatalf("TopicRefs after disconnect = %d, want 5 (sessions spool)", refs)
	}
	if got := tt.broker.Subscribers(topic); len(got) != 1 {
		t.Fatalf("broker subscribers after disconnect = %v, want 1", got)
	}

	// Explicit unsubscribes release references one by one; the broker
	// subscription survives until the last one.
	for i := 0; i < 4; i++ {
		if err := devs[i].Unsubscribe(topic); err != nil {
			t.Fatalf("unsubscribe %d: %v", i, err)
		}
		wantRefs := 5 - (i + 1)
		if refs := tt.host.TopicRefs(topic); refs != wantRefs {
			t.Fatalf("TopicRefs after %d unsubscribes = %d, want %d", i+1, refs, wantRefs)
		}
		if got := tt.broker.Subscribers(topic); len(got) != 1 {
			t.Fatalf("broker dropped the subscription at %d refs remaining: %v", wantRefs, got)
		}
	}

	// The disconnected device's session still holds the last reference;
	// release it through a reconnected client.
	dev4b := tt.device("mux-dev-4")
	if err := dev4b.Unsubscribe(topic); err != nil {
		t.Fatal(err)
	}
	if refs := tt.host.TopicRefs(topic); refs != 0 {
		t.Fatalf("TopicRefs after last unsubscribe = %d, want 0", refs)
	}
	if got := tt.broker.Subscribers(topic); len(got) != 0 {
		t.Fatalf("broker still subscribed after last reference dropped: %v", got)
	}

	// Churn: subscribe again from scratch re-establishes exactly one.
	if err := dev4b.Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
		t.Fatal(err)
	}
	if got := tt.broker.Subscribers(topic); len(got) != 1 {
		t.Fatalf("broker subscribers after re-churn = %v, want 1", got)
	}
}

// TestHostSubscribeUnsubscribeOrdering pins the drain handshake on the
// multiplexed subscription: when the last session unsubscribes while a new
// session subscribes concurrently, the fresh upstream Subscribe must
// serialize behind the in-flight Unsubscribe. Without the draining state
// the broker could process them in the wrong order, leaving the host
// unsubscribed while the new session holds a reference — every
// notification on the topic silently lost.
func TestHostSubscribeUnsubscribeOrdering(t *testing.T) {
	tt := newTopology(t, Options{Workers: 1})
	h := tt.host
	const topic = "order/t"
	s1 := newSession(h, "order-1", h.workers[0])
	s2 := newSession(h, "order-2", h.workers[0])
	// A hello's attach builds the proxy; these sessions have no connection.
	h.workers[0].wheel.Run(func() { s1.ensureResident(); s2.ensureResident() })
	subFrame := func() *wire.Frame {
		return &wire.Frame{Type: wire.TypeSubscribe, Topic: topic,
			TopicPolicy: &wire.TopicPolicy{Mode: "on-line"}}
	}
	// Deterministic interleaving: park the unsubscriber in the window
	// between dropping the last reference and sending the upstream
	// Unsubscribe, and start the new subscriber inside it. The subscriber
	// must block on the drain (and resubscribe after) rather than racing
	// its Subscribe past the parked Unsubscribe at the broker.
	if err := h.subscribe(s1, subFrame()); err != nil {
		t.Fatal(err)
	}
	gapEntered := make(chan struct{})
	s2returned := make(chan struct{})
	var s2err error
	h.testHookUnsubscribeGap = func(string) {
		close(gapEntered)
		select {
		case <-s2returned:
			// Buggy ordering: the subscribe overtook us. Fall through and
			// let the assertions below report it.
		case <-time.After(250 * time.Millisecond):
			// Fixed ordering: the subscribe is parked on the drain.
		}
	}
	unsubDone := make(chan error, 1)
	go func() { unsubDone <- h.unsubscribe(s1, topic) }()
	<-gapEntered
	go func() { s2err = h.subscribe(s2, subFrame()); close(s2returned) }()
	if err := <-unsubDone; err != nil {
		t.Fatalf("unsubscribe s1: %v", err)
	}
	<-s2returned
	if s2err != nil {
		t.Fatalf("subscribe s2: %v", s2err)
	}
	h.testHookUnsubscribeGap = nil
	if refs := h.TopicRefs(topic); refs != 1 {
		t.Fatalf("TopicRefs = %d, want 1", refs)
	}
	if got := tt.broker.Subscribers(topic); len(got) != 1 {
		t.Fatalf("broker subscribers = %v with 1 ref held: the concurrent subscribe was lost", got)
	}
	if err := h.unsubscribe(s2, topic); err != nil {
		t.Fatal(err)
	}
	if got := tt.broker.Subscribers(topic); len(got) != 0 {
		t.Fatalf("broker still subscribed after last ref: %v", got)
	}

	// Churn the same pair concurrently (race coverage; the deterministic
	// interleaving above pins the ordering itself).
	for i := 0; i < 100; i++ {
		if err := h.subscribe(s1, subFrame()); err != nil {
			t.Fatalf("iter %d: subscribe s1: %v", i, err)
		}
		var wg sync.WaitGroup
		var subErr, unsubErr error
		wg.Add(2)
		go func() { defer wg.Done(); subErr = h.subscribe(s2, subFrame()) }()
		go func() { defer wg.Done(); unsubErr = h.unsubscribe(s1, topic) }()
		wg.Wait()
		if subErr != nil || unsubErr != nil {
			t.Fatalf("iter %d: subscribe s2: %v, unsubscribe s1: %v", i, subErr, unsubErr)
		}
		if refs := h.TopicRefs(topic); refs != 1 {
			t.Fatalf("iter %d: TopicRefs = %d, want 1", i, refs)
		}
		if got := tt.broker.Subscribers(topic); len(got) != 1 {
			t.Fatalf("iter %d: broker subscribers = %v with 1 ref held", i, got)
		}
		if err := h.unsubscribe(s2, topic); err != nil {
			t.Fatalf("iter %d: unsubscribe s2: %v", i, err)
		}
		if got := tt.broker.Subscribers(topic); len(got) != 0 {
			t.Fatalf("iter %d: broker still subscribed after last ref: %v", i, got)
		}
	}
}

// TestUnsubscribeWhileHibernatedDrainsCleanly is the spool-aware sibling of
// TestHostSubscribeUnsubscribeOrdering: the unsubscribing session has
// hibernated (proxy gone, state on the spool chain), its last reference
// starts the upstream drain, and the device reconnects and re-subscribes
// mid-drain — rehydrating from a chain whose snapshot still lists the
// topic. The session must end with exactly one reference and one broker
// subscription (no double-subscribe), and the rehydrated proxy must not
// resurrect the unsubscribed topic (no lost unsubscribe). Pre-fix, the
// unsubscribe dereferenced the hibernated session's nil proxy.
func TestUnsubscribeWhileHibernatedDrainsCleanly(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	h := tt.host
	const topic = "gap/hib"
	policy := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}

	dev := tt.device("gap-hib-dev")
	if err := dev.Subscribe(topic, policy); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("gap-hib-pub")
	publishSeq(t, pub, topic, "g", 0, 2)
	waitFor(t, "notes resident", func() bool {
		st, ok := h.SessionStats("gap-hib-dev")
		return ok && st.Notifications >= 2
	})
	_ = dev.Close()
	waitFor(t, "session hibernated", func() bool {
		info, ok := sessionInfoOf(h, "gap-hib-dev")
		return ok && info.State == "hibernated"
	})
	if refs := h.TopicRefs(topic); refs != 1 {
		t.Fatalf("TopicRefs after hibernation = %d, want 1 (hibernated sessions keep their reference)", refs)
	}

	gapEntered := make(chan struct{})
	releaseGap := make(chan struct{})
	h.testHookUnsubscribeGap = func(string) {
		close(gapEntered)
		<-releaseGap
	}
	defer func() { h.testHookUnsubscribeGap = nil }()

	h.mu.Lock()
	sess := h.sessions["gap-hib-dev"]
	h.mu.Unlock()
	unsubDone := make(chan error, 1)
	go func() { unsubDone <- h.unsubscribe(sess, topic) }()
	<-gapEntered

	// Mid-drain: the device reconnects (hello rehydrates the session from
	// the chain, which must honor the membership correction) and issues a
	// fresh subscribe, which must park on the drain instead of racing its
	// upstream Subscribe past the in-flight Unsubscribe.
	dev2 := tt.device("gap-hib-dev")
	waitFor(t, "session resident again", func() bool {
		info, ok := sessionInfoOf(h, "gap-hib-dev")
		return ok && info.State == "resident" && info.Connected
	})
	subDone := make(chan error, 1)
	go func() { subDone <- dev2.Subscribe(topic, policy) }()
	select {
	case err := <-subDone:
		t.Fatalf("subscribe completed mid-drain (err=%v); it must wait out the unsubscribe", err)
	case <-time.After(250 * time.Millisecond):
	}
	close(releaseGap)
	if err := <-unsubDone; err != nil {
		t.Fatalf("unsubscribe on hibernated session: %v", err)
	}
	if err := <-subDone; err != nil {
		t.Fatalf("subscribe after drain: %v", err)
	}

	if refs := h.TopicRefs(topic); refs != 1 {
		t.Fatalf("TopicRefs after re-subscribe = %d, want 1", refs)
	}
	if subs := tt.broker.Subscribers(topic); len(subs) != 1 {
		t.Fatalf("broker subscribers = %v, want exactly the host", subs)
	}
	// The unsubscribed copy must be gone: the fresh subscription starts
	// empty and only new traffic reaches the device.
	publishSeq(t, pub, topic, "g2", 0, 1)
	deadline := time.Now().Add(10 * time.Second)
	for seen := false; !seen; {
		if time.Now().After(deadline) {
			t.Fatal("g2-0 never arrived on the re-subscribed topic")
		}
		batch, err := dev2.Read(topic, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batch {
			switch n.ID {
			case "g-0", "g-1":
				t.Fatalf("pre-unsubscribe notification %s resurrected by rehydration", n.ID)
			case "g2-0":
				seen = true
			}
		}
		if len(batch) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestHostHelloRenameDetachesOldSession: a second hello with a different
// name moves the connection to the new session and releases the old one;
// the old session must not keep believing the device is reachable.
func TestHostHelloRenameDetachesOldSession(t *testing.T) {
	tt := newTopology(t, Options{Workers: 1})
	nc, err := net.Dial("tcp", tt.addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	defer func() { _ = conn.Close() }()
	hello := func(name string) {
		t.Helper()
		seq, err := conn.SendRequest(&wire.Frame{Type: wire.TypeHello, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TypeOK || f.Re != seq {
			t.Fatalf("hello %q: got %+v, want ok", name, f)
		}
	}
	hello("rebind-a")
	hello("rebind-b")
	// The detach runs before the second hello's response, so the snapshot
	// is already consistent here.
	connected := map[string]bool{}
	for _, s := range tt.host.Sessions() {
		connected[s.Name] = s.Connected
	}
	if connected["rebind-a"] {
		t.Fatal("old session rebind-a still marked connected after rename")
	}
	if !connected["rebind-b"] {
		t.Fatal("new session rebind-b not connected after rename")
	}
	// Disconnecting releases only the session that owns the connection.
	_ = conn.Close()
	waitFor(t, "rebind-b detach", func() bool {
		for _, s := range tt.host.Sessions() {
			if s.Name == "rebind-b" {
				return !s.Connected
			}
		}
		return false
	})
}

// TestHostFanOutSharedTopic: one published notification reaches every
// session subscribed to the topic, each exactly once.
func TestHostFanOutSharedTopic(t *testing.T) {
	tt := newTopology(t, Options{Workers: 3})
	const topic = "fan/t"
	const devices = 6

	devs := make([]*wire.DeviceClient, devices)
	for i := range devs {
		devs[i] = tt.device(fmt.Sprintf("fan-dev-%d", i))
		if err := devs[i].Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
			t.Fatal(err)
		}
	}
	pub := tt.publisher("fan-pub")
	if err := pub.Advertise(topic, ""); err != nil {
		t.Fatal(err)
	}
	const notes = 40
	for i := 0; i < notes; i++ {
		n := &msg.Notification{
			ID: msg.ID(fmt.Sprintf("fan-%d", i)), Topic: topic,
			Rank: float64(1 + i%7), Published: time.Now(),
		}
		if err := pub.Publish(n); err != nil {
			t.Fatal(err)
		}
	}
	for i, dev := range devs {
		d := dev
		waitFor(t, fmt.Sprintf("device %d deliveries", i), func() bool {
			recv, _, _ := d.Stats()
			return recv >= notes
		})
		recv, updates, _ := d.Stats()
		if recv != notes {
			t.Fatalf("device %d received %d, want exactly %d", i, recv, notes)
		}
		if updates != 0 {
			t.Fatalf("device %d saw %d duplicate deliveries", i, updates)
		}
	}
}

// TestHostShardsSessionsAcrossWorkers: many sessions land on more than one
// worker, and each session is pinned to exactly one.
func TestHostShardsSessionsAcrossWorkers(t *testing.T) {
	tt := newTopology(t, Options{Workers: 4})
	for i := 0; i < 32; i++ {
		dev := tt.device(fmt.Sprintf("shard-dev-%02d", i))
		if err := dev.Subscribe(fmt.Sprintf("shard/t%d", i%8), wire.TopicPolicy{Mode: "on-line"}); err != nil {
			t.Fatal(err)
		}
	}
	used := make(map[int]int)
	for _, s := range tt.host.Sessions() {
		if s.Worker < 0 || s.Worker >= 4 {
			t.Fatalf("session %s on out-of-range worker %d", s.Name, s.Worker)
		}
		used[s.Worker]++
	}
	if len(used) < 2 {
		t.Fatalf("32 sessions all landed on %d worker(s): %v", len(used), used)
	}
	if tt.host.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", tt.host.Workers())
	}
}

// TestHostSessionResumption: a device that disconnects while notifications
// flow and then reconnects under the same name resumes its session — the
// spooled backlog lands and nothing is delivered twice.
func TestHostSessionResumption(t *testing.T) {
	tt := newTopology(t, Options{Workers: 2})
	const topic = "resume/t"

	dev, err := wire.DialProxy(tt.addr, "resume-dev")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("resume-pub")
	if err := pub.Advertise(topic, ""); err != nil {
		t.Fatal(err)
	}
	publish := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := &msg.Notification{
				ID: msg.ID(fmt.Sprintf("res-%d", i)), Topic: topic,
				Rank: 3, Published: time.Now(),
			}
			if err := pub.Publish(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(0, 10)
	waitFor(t, "first burst", func() bool { r, _, _ := dev.Stats(); return r >= 10 })

	// Kill the connection; the host marks the session offline and spools.
	_ = dev.Close()
	waitFor(t, "session offline", func() bool {
		for _, s := range tt.host.Sessions() {
			if s.Name == "resume-dev" {
				return !s.Connected
			}
		}
		return false
	})
	publish(10, 25)
	waitFor(t, "spooled backlog", func() bool {
		st, ok := tt.host.SessionStats("resume-dev")
		return ok && st.Notifications >= 25
	})

	// Reconnect under the same name; Redial is not available on a closed
	// client, so dial fresh and resume via the subscribe/resume handshake.
	dev2, err := wire.DialProxyOpts(tt.addr, "resume-dev", wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev2.Close() }()
	if err := dev2.Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "backlog drain", func() bool { r, _, _ := dev2.Stats(); return r >= 15 })
	recv, updates, _ := dev2.Stats()
	if recv != 15 {
		t.Fatalf("reconnected device received %d, want exactly the 15 spooled", recv)
	}
	if updates != 0 {
		t.Fatalf("reconnected device saw %d duplicates", updates)
	}
	var info SessionInfo
	for _, s := range tt.host.Sessions() {
		if s.Name == "resume-dev" {
			info = s
		}
	}
	if info.Connects != 2 {
		t.Fatalf("session connects = %d, want 2", info.Connects)
	}
}

// TestHostOnDemandRead drives the §3.5 READ protocol through the host.
func TestHostOnDemandRead(t *testing.T) {
	tt := newTopology(t, Options{Workers: 2})
	const topic = "read/t"
	dev := tt.device("read-dev")
	if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("read-pub")
	if err := pub.Advertise(topic, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n := &msg.Notification{
			ID: msg.ID(fmt.Sprintf("rd-%d", i)), Topic: topic,
			Rank: float64(i), Published: time.Now(),
		}
		if err := pub.Publish(n); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "host holds the batch", func() bool {
		st, ok := tt.host.SessionStats("read-dev")
		return ok && st.Notifications >= 8
	})
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("read %d of 8", got)
		}
		batch, err := dev.Read(topic, 0)
		if err != nil {
			t.Fatal(err)
		}
		got += len(batch)
	}
	if got != 8 {
		t.Fatalf("read %d notifications, want 8", got)
	}
}

// TestHostHelloRequired: non-hello frames before the hello are rejected
// without crashing the connection handler.
func TestHostHelloRequired(t *testing.T) {
	tt := newTopology(t, Options{Workers: 1})
	nc, err := net.Dial("tcp", tt.addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	defer func() { _ = conn.Close() }()
	seq, err := conn.SendRequest(&wire.Frame{Type: wire.TypeSubscribe, Topic: "x"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeErr || f.Re != seq || !strings.Contains(f.Message, "hello") {
		t.Fatalf("got %+v, want hello-required error", f)
	}
}

// TestHostMetricsRegistration: the sharding/mux gauges land on a registry
// scrape with the expected families.
func TestHostMetricsRegistration(t *testing.T) {
	tt := newTopology(t, Options{Workers: 2})
	reg := obs.NewRegistry()
	tt.host.RegisterMetrics(reg, "h0")
	dev := tt.device("m-dev")
	if err := dev.Subscribe("m/t", wire.TopicPolicy{Mode: "on-line"}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`lasthop_host_sessions{host="h0"} 1`,
		`lasthop_host_upstream_subscriptions{host="h0"} 1`,
		`lasthop_host_topic_refs{host="h0",topic="m/t"} 1`,
		`lasthop_host_session_connected{host="h0",device="m-dev"} 1`,
		"lasthop_host_worker_timers",
		"lasthop_host_worker_sessions",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}
