package host

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/wire"
)

// hostBenchBatch is the publish pipelining width: the burst size the
// host datapath is designed around.
const hostBenchBatch = 64

// hostBenchDrainEvery bounds each device's local store during the run:
// once a device has accumulated this many deliveries the driver issues a
// read, consuming the local queue inside the timed region.
const hostBenchDrainEvery = 1024

// startBenchHost serves a broker and a host chained to it on loopback
// until the benchmark run ends, and returns their addresses.
func startBenchHost(b *testing.B) (brokerAddr, hostAddr string) {
	b.Helper()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	bs := wire.NewBrokerServer(pubsub.NewBroker("bench-broker"), nil)
	go func() { _ = bs.Serve(bl) }()
	b.Cleanup(bs.Close)

	h, err := New(Options{BrokerAddr: bl.Addr().String(), Name: "bench-host"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(h.Close)
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = h.Serve(hl) }()
	return bl.Addr().String(), hl.Addr().String()
}

// BenchmarkHostForwardPath measures the last-hop pipeline: publisher →
// broker server → host (sharded sessions, multiplexed upstream, wheel
// timers) → device clients, at one session (the single-device deployment)
// and at eight. Notifications round-robin across per-device topics, so
// each op is one end-to-end delivery; the run only completes once every
// device holds everything published to its topic. Publishes ride the
// pipelined batch path in bursts of hostBenchBatch, with notification
// objects and IDs prepared outside the timed region so the measured
// allocations are the datapath's own.
//
// Pipelined publish streams stay in flight, each on its own broker
// connection, since one stop-and-wait stream would leave the pipeline
// idle for a round-trip between bursts. Each case keeps the stream count
// of the history it continues: one session the 32 of the single-device
// forward-path benchmark, eight sessions the host's 8.
func BenchmarkHostForwardPath(b *testing.B) {
	for _, c := range []struct{ devices, publishers int }{{1, 32}, {8, 8}} {
		b.Run(fmt.Sprintf("sessions=%d", c.devices), func(b *testing.B) {
			benchHostForwardPath(b, c.devices, c.publishers)
		})
	}
}

func benchHostForwardPath(b *testing.B, devices, publishers int) {
	brokerAddr, hostAddr := startBenchHost(b)

	devs := make([]*wire.DeviceClient, devices)
	topics := make([]string, devices)
	for i := range devs {
		topics[i] = fmt.Sprintf("bench/online-%d", i)
		dev, err := wire.DialProxy(hostAddr, fmt.Sprintf("bench-dev-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = dev.Close() }()
		if err := dev.Subscribe(topics[i], wire.TopicPolicy{Mode: "on-line"}); err != nil {
			b.Fatal(err)
		}
		devs[i] = dev
	}

	pubs := make([]*wire.BrokerClient, publishers)
	for w := range pubs {
		pub, err := wire.DialBroker(brokerAddr, "bench-pub-"+strconv.Itoa(w))
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = pub.Close() }()
		for _, t := range topics {
			if err := pub.Advertise(t, "bench-pub"); err != nil {
				b.Fatal(err)
			}
		}
		pubs[w] = pub
	}

	base := time.Unix(1700000000, 0).UTC()
	ids := make([]msg.ID, b.N)
	for i := range ids {
		ids[i] = msg.ID("fwd-" + strconv.FormatInt(int64(i), 10))
	}
	noteSets := make([][]*msg.Notification, publishers)
	for w := range noteSets {
		notes := make([]*msg.Notification, hostBenchBatch)
		for i := range notes {
			notes[i] = &msg.Notification{Rank: 3, Published: base}
		}
		noteSets[w] = notes
	}
	chunk := (b.N + publishers - 1) / publishers

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var benchErr atomic.Value
	for w := 0; w < publishers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > b.N {
			hi = b.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(pub *wire.BrokerClient, notes []*msg.Notification, lo, hi int) {
			defer wg.Done()
			for sent := lo; sent < hi; {
				k := hostBenchBatch
				if left := hi - sent; k > left {
					k = left
				}
				for j := 0; j < k; j++ {
					notes[j].ID = ids[sent+j]
					notes[j].Topic = topics[(sent+j)%devices]
				}
				for _, err := range pub.PublishBatch(notes[:k]) {
					if err != nil {
						benchErr.Store(err)
						return
					}
				}
				sent += k
			}
		}(pubs[w], noteSets[w], lo, hi)
	}
	// Per-topic delivery targets follow from the round-robin assignment.
	wants := make([]int, devices)
	for slot := range wants {
		wants[slot] = b.N / devices
		if slot < b.N%devices {
			wants[slot]++
		}
	}
	// Drain each device store as deliveries accumulate and wait for every
	// published notification to land.
	deadline := time.Now().Add(30 * time.Second)
	lastDrain := make([]int, devices)
	for {
		if err, ok := benchErr.Load().(error); ok {
			b.Fatal(err)
		}
		done := true
		for i, dev := range devs {
			received, _, _ := dev.Stats()
			if received-lastDrain[i] >= hostBenchDrainEvery {
				lastDrain[i] = received
				if _, err := dev.Read(topics[i], 0); err != nil {
					b.Fatal(err)
				}
			}
			if received < wants[i] {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, dev := range devs {
				received, _, _ := dev.Stats()
				if received < wants[i] {
					b.Fatalf("device %d received %d of %d", i, received, wants[i])
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkHostBroadcast measures the one-to-many host path: every device
// session subscribes to the SAME topic, so each published notification
// fans out to all of them through dispatchPush's copy-on-write broadcast
// split (shared payload bytes, per-session envelopes) and the downstream
// shared-frame egress. Each op is one published notification = broadcastDevices
// deliveries; ns/delivery divides accordingly.
func BenchmarkHostBroadcast(b *testing.B) {
	const broadcastDevices = 64
	const topic = "bench/broadcast"

	brokerAddr, hostAddr := startBenchHost(b)

	devs := make([]*wire.DeviceClient, broadcastDevices)
	for i := range devs {
		dev, err := wire.DialProxy(hostAddr, fmt.Sprintf("bench-bdev-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = dev.Close() }()
		if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-line"}); err != nil {
			b.Fatal(err)
		}
		devs[i] = dev
	}

	pub, err := wire.DialBroker(brokerAddr, "bench-pub")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(topic, "bench-pub"); err != nil {
		b.Fatal(err)
	}

	base := time.Unix(1700000000, 0).UTC()
	ids := make([]msg.ID, b.N)
	for i := range ids {
		ids[i] = msg.ID("bc-" + strconv.FormatInt(int64(i), 10))
	}
	notes := make([]*msg.Notification, hostBenchBatch)
	for i := range notes {
		notes[i] = &msg.Notification{Topic: topic, Rank: 3, Published: base, Payload: make([]byte, 256)}
	}

	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan error, 1)
	go func() {
		for sent := 0; sent < b.N; {
			k := hostBenchBatch
			if left := b.N - sent; k > left {
				k = left
			}
			for j := 0; j < k; j++ {
				notes[j].ID = ids[sent+j]
			}
			for _, err := range pub.PublishBatch(notes[:k]) {
				if err != nil {
					done <- err
					return
				}
			}
			sent += k
		}
		done <- nil
	}()
	deadline := time.Now().Add(60 * time.Second)
	lastDrain := make([]int, broadcastDevices)
	for {
		select {
		case err := <-done:
			if err != nil {
				b.Fatal(err)
			}
			done = nil // publisher finished; keep waiting for deliveries
		default:
		}
		all := true
		for i, dev := range devs {
			received, _, _ := dev.Stats()
			if received-lastDrain[i] >= hostBenchDrainEvery {
				lastDrain[i] = received
				if _, err := dev.Read(topic, 0); err != nil {
					b.Fatal(err)
				}
			}
			if received < b.N {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			for i, dev := range devs {
				received, _, _ := dev.Stats()
				if received < b.N {
					b.Fatalf("device %d received %d of %d", i, received, b.N)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*broadcastDevices), "ns/delivery")
}

// BenchmarkHostSessionSetup measures what one device reconnect costs the
// host and the client: each op dials, says hello, subscribes and closes.
// Ops cycle through a fixed set of session names, so after the first pass
// every hello resumes an existing session and every subscribe reasserts
// its topic — the reconnect storm that follows the paper's outages — and
// per-op state stays flat however large b.N grows. B/op carries the
// per-connection memory of both ends, read buffers included.
// exact-allocs/op is the mean allocation count that allocs/op prints
// truncated to an integer.
func BenchmarkHostSessionSetup(b *testing.B) {
	const sessions, topics = 64, 8
	_, hostAddr := startBenchHost(b)

	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("bench-setup-%d", i)
	}
	topicNames := make([]string, topics)
	for i := range topicNames {
		topicNames[i] = fmt.Sprintf("bench/setup-%d", i)
	}
	pol := wire.TopicPolicy{Mode: "on-demand", Max: 8, HistoryLimit: 64}
	connect := func(i int) {
		dev, err := wire.DialProxy(hostAddr, names[i%sessions])
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.Subscribe(topicNames[i%topics], pol); err != nil {
			b.Fatal(err)
		}
		_ = dev.Close()
	}
	// One untimed pass creates every session and upstream subscription,
	// so the timed ops are all reconnects whatever b.N is.
	for i := 0; i < sessions; i++ {
		connect(i)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		connect(i)
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "exact-allocs/op")
}
