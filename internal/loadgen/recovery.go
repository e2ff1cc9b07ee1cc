package loadgen

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"lasthop/internal/flight"
	"lasthop/internal/host"
	"lasthop/internal/metrics"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/pubsub"
	"lasthop/internal/retry"
	"lasthop/internal/spool"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// hostOptions translates the loadgen spool knobs into host.Options,
// validating the fsync policy string.
func (c Config) hostOptions(brokerAddr string, wm *wire.Metrics, collector *trace.Collector) (host.Options, error) {
	fsync, err := spool.ParseFsyncPolicy(c.SpoolFsync)
	if err != nil {
		return host.Options{}, err
	}
	return host.Options{
		BrokerAddr:       brokerAddr,
		Name:             "lg-host",
		Workers:          c.HostWorkers,
		Metrics:          wm,
		Trace:            collector,
		Logf:             c.Logf,
		SpoolDir:         c.SpoolDir,
		HibernateAfter:   c.HibernateAfter,
		SpoolCommitEvery: c.SpoolCommitEvery,
		SpoolFsync:       fsync,
	}, nil
}

// RunRecovery is the kill/restart chaos drill behind
// scripts/check_recovery.sh. It drives the phased regime the spool
// exists for — a node carrying far more sessions than connections — and
// proves the zero-loss invariant across two crashes, one with every
// session hibernated and one with sessions resident and mid-forward:
//
//  1. Every device connects (at most Concurrent at once), subscribes to
//     a pure on-demand topic, and disconnects; the host hibernates all
//     of them onto the spool.
//  2. The first third of the load is published into hibernated sessions;
//     the drill waits until every copy is a durable spool delta, kills
//     the host abruptly (no shutdown path runs) and restarts it on the
//     same spool and address. Every session must come back.
//  3. Concurrent devices reconnect and stay connected, reading in a loop
//     with auto-reconnecting clients, so their sessions are resident.
//     The second third is published; once every copy is written ahead,
//     the host is killed again while those READs are in flight, and
//     restarted. The readers resume their sessions (§3.5 read-ID sets)
//     and carry on.
//  4. The last third is published into the recovered sessions.
//  5. The remaining devices reconnect in Concurrent-sized waves and
//     read; the report gates on every device holding every distinct ID
//     it was owed (Lost == 0), with duplicates tallied but tolerated.
//
// Topics are pure on-demand so nothing transfers to a device before its
// READ — the regime where the spool chain, not device-side state, is the
// sole copy across a kill.
func RunRecovery(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.OnDemand = true
	if cfg.HibernateAfter <= 0 {
		cfg.HibernateAfter = 100 * time.Millisecond
	}
	if cfg.SpoolCommitEvery <= 0 {
		cfg.SpoolCommitEvery = 20 * time.Millisecond
	}
	if cfg.SpoolDir == "" {
		dir, err := os.MkdirTemp("", "lasthop-spool-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.SpoolDir = dir
	}
	concurrent := cfg.Concurrent
	if concurrent <= 0 {
		concurrent = cfg.Devices / 20
	}
	if concurrent < 1 {
		concurrent = 1
	}
	if concurrent > 256 {
		concurrent = 256
	}
	if concurrent > cfg.Devices {
		concurrent = cfg.Devices
	}
	deadline := time.Now().Add(cfg.Timeout)

	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	metrics.Register(reg)
	wm := wire.NewMetrics(reg)
	latency := reg.Histogram("lasthop_loadgen_delivery_latency_seconds",
		"End-to-end delivery latency from publish to user read.",
		obs.LatencyBuckets())

	var collector *trace.Collector
	if cfg.TraceSample > 0 {
		ring := cfg.TraceRing
		if ring <= 0 {
			ring = cfg.Notifications + 16
		}
		collector = trace.NewCollector("loadgen", trace.NewSampler(cfg.TraceSample), ring)
		collector.RegisterMetrics(reg)
	}
	if cfg.ObsAddr != "" {
		srv, err := obs.Serve(cfg.ObsAddr, reg,
			obs.Route{Pattern: "/debug/traces", Handler: collector.Handler()})
		if err != nil {
			return nil, fmt.Errorf("obs endpoint: %w", err)
		}
		defer func() { _ = srv.Close() }()
		cfg.Logf("loadgen: observability on http://%s/metrics", srv.Addr())
	}

	// The broker outlives the host kills: only the last-hop node crashes.
	blis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	broker := pubsub.NewBroker("loadgen")
	broker.RegisterMetrics(reg)
	if collector != nil {
		broker.SetTracer(collector)
	}
	bs := wire.NewBrokerServerOpts(broker, wire.ServerOptions{Metrics: wm})
	go func() { _ = bs.Serve(blis) }()
	defer bs.Close()
	brokerAddr := blis.Addr().String()

	hostOpts, err := cfg.hostOptions(brokerAddr, wm, collector)
	if err != nil {
		return nil, err
	}
	h, hostAddr, _, err := startHost(hostOpts, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	alive := h
	defer func() {
		if alive != nil {
			alive.Close()
		}
	}()
	h.RegisterMetrics(reg, "lg-host")

	topics := make([]string, cfg.Topics)
	for i := range topics {
		topics[i] = fmt.Sprintf("load/t%03d", i)
	}
	// Notification i goes to topic i mod Topics; device i subscribes to
	// topic i mod Topics. subsPerTopic converts "published [from, to)"
	// into an exact expected spool-delta count: every session writes
	// every arrival ahead, resident or not.
	subsPerTopic := make([]int, cfg.Topics)
	for i := 0; i < cfg.Devices; i++ {
		subsPerTopic[i%cfg.Topics]++
	}
	perTopicTotal := make([]int, cfg.Topics)
	for i := 0; i < cfg.Notifications; i++ {
		perTopicTotal[i%cfg.Topics]++
	}
	deltasFor := func(from, to int) int64 {
		n := 0
		for i := from; i < to; i++ {
			n += subsPerTopic[i%cfg.Topics]
		}
		return int64(n)
	}

	// Pure on-demand: the session queues everything until a READ, so the
	// spool snapshot/delta chain is the only copy across a kill.
	policy := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}
	devName := func(i int) string { return fmt.Sprintf("lg-dev-%d", i) }

	// Phase 1: subscribe-and-disconnect waves.
	cfg.Logf("loadgen: phase 1: subscribing %d sessions, %d connected at a time", cfg.Devices, concurrent)
	start := time.Now()
	if err := inWaves(cfg.Devices, concurrent, func(i int) error {
		dev, err := wire.DialProxyOpts(hostAddr, devName(i), wire.ClientOptions{Metrics: wm, Trace: collector})
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		defer dev.Close()
		if err := dev.Subscribe(topics[i%cfg.Topics], policy); err != nil {
			return fmt.Errorf("subscribe %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := waitUntil(deadline, "all sessions hibernated", func() bool {
		return h.Lifecycle().Hibernated >= cfg.Devices
	}); err != nil {
		return nil, err
	}
	cfg.Logf("loadgen: phase 1: %d sessions hibernated onto %s", cfg.Devices, cfg.SpoolDir)

	pubs, closePubs, err := dialPublishers(cfg, brokerAddr, wm, topics)
	if err != nil {
		return nil, err
	}
	defer closePubs()

	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	firstThird, secondThird := cfg.Notifications/3, 2*cfg.Notifications/3

	// publishSpooled publishes [from, to) and waits until every copy is a
	// spool delta on the current host.
	publishSpooled := func(from, to int) error {
		before := h.Lifecycle().SpooledDeltas
		if err := publishRange(cfg, pubs, topics, payload, from, to); err != nil {
			return err
		}
		want := before + deltasFor(from, to)
		return waitUntil(deadline, fmt.Sprintf("notifications [%d, %d) spooled", from, to), func() bool {
			return h.Lifecycle().SpooledDeltas >= want
		})
	}
	// crash kills the host without any shutdown path and restarts it on
	// the same spool and address; every session must come back.
	recovered := cfg.Devices
	crash := func(what string) error {
		cfg.Logf("loadgen: killing host with %s", what)
		h.Kill()
		var n int
		h, hostAddr, n, err = startHost(hostOpts, hostAddr)
		if err != nil {
			return fmt.Errorf("restart after kill: %w", err)
		}
		alive = h
		cfg.Logf("loadgen: restarted, %d of %d sessions recovered", n, cfg.Devices)
		recovered = min(recovered, n)
		if n != cfg.Devices {
			return fmt.Errorf("recovery: %d of %d sessions survived the kill", n, cfg.Devices)
		}
		return nil
	}

	// Phase 2: the first third lands in hibernated sessions, then crash.
	cfg.Logf("loadgen: phase 2: publishing %d notifications into hibernated sessions", firstThird)
	if err := publishSpooled(0, firstThird); err != nil {
		return nil, err
	}
	if err := crash("every session hibernated"); err != nil {
		return nil, err
	}

	// Phase 3: resident readers, the second third, and a crash while
	// their READs are in flight.
	readers := make([]*residentReader, concurrent)
	for i := range readers {
		topic := topics[i%cfg.Topics]
		dev, err := wire.DialProxyOpts(hostAddr, devName(i), wire.ClientOptions{
			Metrics: wm, Trace: collector, AutoReconnect: true,
			Backoff:     retry.Policy{Initial: 10 * time.Millisecond, Max: 200 * time.Millisecond},
			DialTimeout: time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("resident device %d: %w", i, err)
		}
		defer dev.Close()
		if err := dev.Subscribe(topic, policy); err != nil {
			return nil, fmt.Errorf("resident subscribe %d: %w", i, err)
		}
		readers[i] = &residentReader{dev: dev, topic: topic, expect: perTopicTotal[i%cfg.Topics],
			seen: make(map[msg.ID]bool), done: make(chan struct{})}
		go readers[i].run(deadline, latency)
	}
	cfg.Logf("loadgen: phase 3: %d sessions resident and reading; publishing %d notifications",
		concurrent, secondThird-firstThird)
	if err := publishSpooled(firstThird, secondThird); err != nil {
		return nil, err
	}
	if err := crash(fmt.Sprintf("%d sessions resident and mid-forward", concurrent)); err != nil {
		return nil, err
	}

	// Phase 4: the last third into the recovered sessions.
	cfg.Logf("loadgen: phase 4: publishing %d notifications into recovered sessions", cfg.Notifications-secondThird)
	if err := publishSpooled(secondThird, cfg.Notifications); err != nil {
		return nil, err
	}
	publishElapsed := time.Since(start)

	// Phase 5: the resident readers finish, and every other device
	// reconnects in waves and reads everything back. Each device is owed
	// every notification of its topic, from all sides of the kills; IDs
	// are counted distinctly so redelivery shows up as duplicates, not
	// progress.
	cfg.Logf("loadgen: phase 5: draining %d sessions, %d connected at a time", cfg.Devices, concurrent)
	var (
		tallyMu    sync.Mutex
		delivered  int
		duplicates int
		lost       int
	)
	var drainErr error
	for i, r := range readers {
		<-r.done
		// Resume replays a device already holds or consumed count as
		// duplicates too, alongside reads it saw twice.
		_, updates, _ := r.dev.Stats()
		delivered += len(r.seen)
		duplicates += r.dups + updates
		lost += r.expect - len(r.seen)
		if r.err != nil && drainErr == nil {
			drainErr = fmt.Errorf("resident device %d: %w", i, r.err)
		}
	}
	err = inWaves(cfg.Devices-concurrent, concurrent, func(k int) error {
		i := concurrent + k
		topic := topics[i%cfg.Topics]
		expect := perTopicTotal[i%cfg.Topics]
		dev, err := wire.DialProxyOpts(hostAddr, devName(i), wire.ClientOptions{Metrics: wm, Trace: collector})
		if err != nil {
			return fmt.Errorf("drain device %d: %w", i, err)
		}
		defer dev.Close()
		if err := dev.Subscribe(topic, policy); err != nil {
			return fmt.Errorf("drain subscribe %d: %w", i, err)
		}
		r := &residentReader{dev: dev, topic: topic, expect: expect, seen: make(map[msg.ID]bool, expect)}
		r.read(deadline, latency)
		tallyMu.Lock()
		delivered += len(r.seen)
		duplicates += r.dups
		lost += expect - len(r.seen)
		tallyMu.Unlock()
		if r.err != nil {
			return fmt.Errorf("drain device %d: %w", i, r.err)
		}
		return nil
	})
	if drainErr == nil {
		drainErr = err
	}
	deliverElapsed := time.Since(start)

	if collector != nil {
		collector.FinishActive(time.Now())
	}
	rep := &Report{
		Config:         cfg,
		Published:      cfg.Notifications,
		Delivered:      delivered,
		Duplicates:     duplicates,
		Recovered:      recovered,
		Lost:           lost,
		PublishSeconds: publishElapsed.Seconds(),
		DeliverSeconds: deliverElapsed.Seconds(),
		LatencyP50Ms:   latency.Quantile(0.50) * 1000,
		LatencyP95Ms:   latency.Quantile(0.95) * 1000,
		LatencyP99Ms:   latency.Quantile(0.99) * 1000,
	}
	if s := rep.PublishSeconds; s > 0 {
		rep.PublishPerSec = float64(rep.Published) / s
	}
	if s := rep.DeliverSeconds; s > 0 {
		rep.DeliverPerSec = float64(rep.Delivered) / s
	}
	finishTraces(rep, collector)
	if cfg.BundleDir != "" && (drainErr != nil || rep.Lost > 0 || rep.Recovered != cfg.Devices) {
		o := flight.BundleOptions{
			Dir:      cfg.BundleDir,
			Node:     "recovery-drill",
			Reason:   "recovery-failure",
			Recorder: flight.Active(),
			Metrics:  reg,
		}
		if collector != nil {
			o.Traces = collector
		}
		if p, berr := flight.WriteBundle(o); berr != nil {
			cfg.Logf("loadgen: flight bundle failed: %v", berr)
		} else {
			cfg.Logf("loadgen: recovery drill failed, flight bundle at %s", p)
		}
	}
	if drainErr == nil && cfg.Linger > 0 {
		cfg.Logf("loadgen: drill complete, lingering %v for scrapers", cfg.Linger)
		time.Sleep(cfg.Linger)
	}
	return rep, drainErr
}

// residentReader reads one device's topic until it has seen every owed
// ID or the deadline passes, counting distinct IDs and repeats.
type residentReader struct {
	dev    *wire.DeviceClient
	topic  string
	expect int
	seen   map[msg.ID]bool
	dups   int
	err    error
	done   chan struct{} // closed when run returns
}

// run is read on its own goroutine.
func (r *residentReader) run(deadline time.Time, latency *obs.Histogram) {
	defer close(r.done)
	r.read(deadline, latency)
}

func (r *residentReader) read(deadline time.Time, latency *obs.Histogram) {
	for len(r.seen) < r.expect && time.Now().Before(deadline) {
		batch, err := r.dev.Read(r.topic, 0)
		if err != nil {
			r.err = err
			return
		}
		for _, n := range batch {
			if r.seen[n.ID] {
				r.dups++
				continue
			}
			r.seen[n.ID] = true
			latency.Observe(time.Since(n.Published).Seconds())
		}
		if len(batch) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(r.seen) < r.expect && r.err == nil {
		r.err = fmt.Errorf("read %d of %d before deadline", len(r.seen), r.expect)
	}
}

// startHost boots a host on a loopback listener at addr (port 0 picks a
// fresh one) and returns its dial address and how many sessions it
// recovered from the spool before serving.
func startHost(opts host.Options, addr string) (*host.Host, string, int, error) {
	h, err := host.New(opts)
	if err != nil {
		return nil, "", 0, fmt.Errorf("host: %w", err)
	}
	recovered := len(h.Sessions())
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		h.Close()
		return nil, "", 0, err
	}
	go func() { _ = h.Serve(lis) }()
	return h, lis.Addr().String(), recovered, nil
}

// dialPublishers connects the configured publisher pool, advertising
// every topic under the shared "loadgen" identity.
func dialPublishers(cfg Config, brokerAddr string, wm *wire.Metrics, topics []string) ([]*wire.BrokerClient, func(), error) {
	pubs := make([]*wire.BrokerClient, 0, cfg.Publishers)
	closeAll := func() {
		for _, p := range pubs {
			_ = p.Close()
		}
	}
	for i := 0; i < cfg.Publishers; i++ {
		pub, err := wire.DialBrokerOpts(brokerAddr, fmt.Sprintf("lg-pub-%d", i), wire.ClientOptions{Metrics: wm})
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("publisher %d: %w", i, err)
		}
		pubs = append(pubs, pub)
		for _, t := range topics {
			if err := pub.Advertise(t, "loadgen"); err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("advertise %s: %w", t, err)
			}
		}
	}
	return pubs, closeAll, nil
}

// publishRange pushes notifications [from, to) through the publisher
// pool, round-robin across topics exactly as Run does.
func publishRange(cfg Config, pubs []*wire.BrokerClient, topics []string, payload []byte, from, to int) error {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		pubErr error
		next   = make(chan int, len(pubs))
	)
	go func() {
		for i := from; i < to; i++ {
			next <- i
		}
		close(next)
	}()
	for _, pub := range pubs {
		wg.Add(1)
		go func(pub *wire.BrokerClient) {
			defer wg.Done()
			for i := range next {
				n := &msg.Notification{
					ID:        msg.ID(fmt.Sprintf("lg-%d", i)),
					Topic:     topics[i%len(topics)],
					Publisher: "loadgen",
					Rank:      float64(1 + i%5),
					Published: time.Now(),
					Payload:   payload,
				}
				if err := pub.Publish(n); err != nil {
					mu.Lock()
					if pubErr == nil {
						pubErr = fmt.Errorf("publish %s: %w", n.ID, err)
					}
					mu.Unlock()
					return
				}
			}
		}(pub)
	}
	wg.Wait()
	return pubErr
}

// inWaves runs fn(0..n-1) with at most width concurrent calls, stopping
// new work after the first error (in-flight calls finish).
func inWaves(n, width int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int, width)
	)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				stop := first != nil
				mu.Unlock()
				if stop {
					continue
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(deadline time.Time, what string, cond func() bool) error {
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
