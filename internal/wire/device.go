package wire

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/rankedq"
	"lasthop/internal/trace"
)

// DeviceClient is the mobile client of a proxy host: it keeps a local
// ranked queue per topic (fed by proxy pushes), and implements the §3.5
// READ protocol — offering its best local events so the proxy only
// transfers better data.
//
// With AutoReconnect enabled the client survives the intermittent last
// hop: a dead connection is re-dialed with backoff, the session is resumed
// (re-identify, re-subscribe, replay the read/queue ID sets so the proxy
// can reconcile in-flight losses), and calls issued during the outage park
// until the link returns.
type DeviceClient struct {
	caller
	name string
	addr string
	opts ClientOptions

	closing chan struct{} // closed by Close; aborts reconnect waits
	exited  chan struct{} // closed when the maintenance loop exits

	smu        sync.Mutex
	queues     map[string]*rankedq.Queue
	read       map[string]msg.IDSet
	thresholds map[string]float64
	policies   map[string]TopicPolicy
	received   int
	updates    int
	drops      int
	reconnects int
	onPush     func(*msg.Notification)
}

// DialProxy connects and identifies to a proxy server with default
// options: fail-fast, no automatic reconnection.
func DialProxy(addr, name string) (*DeviceClient, error) {
	return DialProxyOpts(addr, name, ClientOptions{})
}

// DialProxyOpts connects and identifies to a proxy server. The initial
// dial is a single attempt (so a wrong address fails immediately);
// opts.AutoReconnect governs what happens when an established connection
// later dies.
func DialProxyOpts(addr, name string, opts ClientOptions) (*DeviceClient, error) {
	d := &DeviceClient{
		name:       name,
		addr:       addr,
		opts:       opts.withDefaults(),
		closing:    make(chan struct{}),
		exited:     make(chan struct{}),
		queues:     make(map[string]*rankedq.Queue),
		read:       make(map[string]msg.IDSet),
		thresholds: make(map[string]float64),
		policies:   make(map[string]TopicPolicy),
	}
	conn, err := d.connect()
	if err != nil {
		return nil, fmt.Errorf("dial proxy: %w", err)
	}
	d.caller = newCaller(conn)
	go d.run(conn)
	return d, nil
}

// connect dials and completes the session handshake on a fresh connection.
func (d *DeviceClient) connect() (*Conn, error) {
	conn, err := dialConn(d.addr, d.opts)
	if err != nil {
		return nil, err
	}
	// Pushed notifications are retained by the device store, but the frame
	// carrying them is done once storeAndNotify returns, so it is reused
	// across pushes; read/subscribe responses escape to the waiting call
	// and relinquish it (see Conn.Recv). Topic strings repeat on every
	// push, so they are interned — the pool itself stays off because the
	// store keeps the notifications.
	conn.SetRecvReuse(true)
	conn.SetInternNames(true)
	if err := d.handshake(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake identifies the device and replays its session: every
// subscription is reasserted, and the per-topic queue and read ID sets are
// resumed so the proxy re-queues anything that was lost in flight and
// never re-sends what the user already consumed. It runs synchronously on
// a connection whose read loop has not started; racing pushes are applied
// to the local store as they arrive.
func (d *DeviceClient) handshake(conn *Conn) error {
	conn.setRawDeadline(time.Now().Add(d.opts.DialTimeout))
	defer conn.setRawDeadline(time.Time{})
	onFrame := func(f *Frame) {
		switch f.Type {
		case TypePush:
			if f.Notification != nil {
				f.Notification.Trace = f.Trace
				d.storeAndNotify(f.Notification)
			}
		case TypePushBatch:
			adoptBatchTraces(f)
			for _, n := range f.Batch {
				if n != nil {
					d.storeAndNotify(n)
				}
			}
		}
	}
	if err := syncExchange(conn, &Frame{Type: TypeHello, Name: d.name, Caps: LocalCaps()}, onFrame); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	type topicSession struct {
		topic      string
		pol        TopicPolicy
		have, read []msg.ID
	}
	d.smu.Lock()
	sessions := make([]topicSession, 0, len(d.policies))
	for topic, pol := range d.policies {
		s := topicSession{topic: topic, pol: pol}
		if q := d.queues[topic]; q != nil {
			q.Each(func(n *msg.Notification) { s.have = append(s.have, n.ID) })
		}
		for id := range d.read[topic] {
			s.read = append(s.read, id)
		}
		sessions = append(sessions, s)
	}
	d.smu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].topic < sessions[j].topic })

	for _, s := range sessions {
		pol := s.pol
		if err := syncExchange(conn, &Frame{Type: TypeSubscribe, Topic: s.topic, TopicPolicy: &pol}, onFrame); err != nil {
			return fmt.Errorf("resubscribe %q: %w", s.topic, err)
		}
		if err := syncExchange(conn, &Frame{Type: TypeResume, Topic: s.topic, HaveIDs: s.have, ReadIDs: s.read}, onFrame); err != nil {
			return fmt.Errorf("resume %q: %w", s.topic, err)
		}
	}
	return nil
}

// run is the connection maintenance loop: it serves one connection until
// it dies, then — when AutoReconnect is on — re-establishes the session
// with backoff and carries on.
func (d *DeviceClient) run(conn *Conn) {
	defer close(d.exited)
	for {
		stopHB := startPinger(d.opts.HeartbeatInterval, func() error {
			start := time.Now()
			err := d.call(&Frame{Type: TypePing})
			if err == nil && d.opts.Metrics != nil {
				d.opts.Metrics.HeartbeatRTT.Observe(time.Since(start).Seconds())
			}
			return err
		})
		err := d.readFrames(conn)
		stopHB()
		d.fail(err)
		_ = conn.Close()
		if d.isClosed() || !d.opts.AutoReconnect {
			d.setDead(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		d.opts.Logf("wire: device %q: connection lost (%v), reconnecting", d.name, err)
		next, rerr := reconnectLoop(d.addr, d.opts, d.closing, d.connect)
		if rerr != nil {
			d.opts.Logf("wire: device %q: %v", d.name, rerr)
			d.setDead(rerr)
			return
		}
		if next == nil {
			return // closed while reconnecting
		}
		if !d.reset(next) {
			_ = next.Close()
			return
		}
		d.smu.Lock()
		d.reconnects++
		d.smu.Unlock()
		if d.opts.Metrics != nil {
			d.opts.Metrics.Reconnects.Inc()
		}
		d.opts.Logf("wire: device %q: session resumed", d.name)
		conn = next
	}
}

// readFrames dispatches incoming frames until the connection fails.
func (d *DeviceClient) readFrames(conn *Conn) error {
	for {
		f, err := conn.Recv()
		if err != nil {
			return err
		}
		switch f.Type {
		case TypePush:
			if f.Notification != nil {
				f.Notification.Trace = f.Trace
				d.storeAndNotify(f.Notification)
			}
		case TypePushBatch:
			adoptBatchTraces(f)
			for _, n := range f.Batch {
				if n != nil {
					d.storeAndNotify(n)
				}
			}
		case TypePing:
			_ = conn.Send(&Frame{Type: TypePong, Re: f.Seq})
		case TypeOK, TypeErr, TypePong:
			d.resolve(f)
		}
	}
}

// Close tears the client down. It is idempotent and safe to call
// concurrently with in-flight requests, which fail with a closed error.
func (d *DeviceClient) Close() error {
	if d.markClosed() {
		return nil
	}
	close(d.closing)
	if c := d.currentConn(); c != nil {
		_ = c.Close()
	}
	<-d.exited
	return nil
}

// callRetry issues a request, parking and retrying across reconnects when
// the transport (not the remote application) failed.
func (d *DeviceClient) callRetry(mk func() *Frame) error {
	for {
		err := d.call(mk())
		if err == nil || !isConnLost(err) || !d.opts.AutoReconnect {
			return err
		}
		if werr := d.awaitOnline(); werr != nil {
			return werr
		}
	}
}

// store applies one pushed notification to the local queue with the same
// semantics as the simulated device: duplicates are rank revisions, and a
// revision below the topic threshold discards the local copy. It reports
// whether the notification was a first-time delivery (not a revision of
// something already held or consumed).
func (d *DeviceClient) store(n *msg.Notification) bool {
	d.smu.Lock()
	defer d.smu.Unlock()
	q, ok := d.queues[n.Topic]
	if !ok {
		q = rankedq.NewQueue()
		d.queues[n.Topic] = q
		d.read[n.Topic] = make(msg.IDSet)
	}
	if d.read[n.Topic].Contains(n.ID) {
		d.updates++
		return false
	}
	if q.Contains(n.ID) {
		d.updates++
		if n.Rank < d.thresholds[n.Topic] {
			q.Remove(n.ID)
			d.drops++
			d.traceEvent(trace.KindDrop, n, "device", "rank retracted below threshold on the device")
			return false
		}
		q.UpdateRank(n.ID, n.Rank)
		return false
	}
	if n.Expired(time.Now()) || n.Rank < d.thresholds[n.Topic] {
		d.received++
		d.traceHop(trace.KindDeviceRecv, n)
		return true
	}
	d.received++
	_ = q.Push(n)
	d.traceHop(trace.KindDeviceRecv, n)
	return true
}

// traceHop stamps the device hop onto a sampled notification's context and
// records the event; no-op when tracing is off or the notification is
// unsampled.
func (d *DeviceClient) traceHop(kind trace.Kind, n *msg.Notification) {
	d.opts.Trace.Hop(kind, d.name, n, time.Now())
}

// traceEvent records a device-side trace event for n; no-op when tracing
// is off.
func (d *DeviceClient) traceEvent(kind trace.Kind, n *msg.Notification, queue, cause string) {
	c := d.opts.Trace
	if c == nil {
		return
	}
	e := trace.Event{
		At: time.Now(), Kind: kind, Topic: n.Topic, ID: n.ID, Rank: n.Rank,
		Node: d.name, Queue: queue, Cause: cause,
	}
	if n.Trace != nil {
		e.TraceID = n.Trace.TraceID
	}
	c.Record(e)
}

// storeAndNotify stores a pushed notification and, when it was a
// first-time delivery, invokes the OnPush observer outside the state lock.
func (d *DeviceClient) storeAndNotify(n *msg.Notification) {
	fresh := d.store(n)
	d.smu.Lock()
	cb := d.onPush
	d.smu.Unlock()
	if fresh && cb != nil {
		cb(n)
	}
}

// SetOnPush installs an observer invoked once per first-time delivery
// (rank revisions and resume replays of consumed IDs are filtered out).
// The callback runs on the connection's read goroutine; keep it cheap.
func (d *DeviceClient) SetOnPush(fn func(*msg.Notification)) {
	d.smu.Lock()
	d.onPush = fn
	d.smu.Unlock()
}

// Subscribe registers a topic on the proxy with the given policy.
func (d *DeviceClient) Subscribe(topic string, pol TopicPolicy) error {
	err := d.callRetry(func() *Frame {
		p := pol
		return &Frame{Type: TypeSubscribe, Topic: topic, TopicPolicy: &p}
	})
	if err != nil {
		return err
	}
	d.smu.Lock()
	d.thresholds[topic] = pol.Threshold
	d.policies[topic] = pol
	d.smu.Unlock()
	return nil
}

// Unsubscribe deregisters a topic.
func (d *DeviceClient) Unsubscribe(topic string) error {
	if err := d.callRetry(func() *Frame { return &Frame{Type: TypeUnsubscribe, Topic: topic} }); err != nil {
		return err
	}
	d.smu.Lock()
	delete(d.policies, topic)
	d.smu.Unlock()
	return nil
}

// Redial re-establishes a dead proxy connection, keeping the local
// notification cache (a phone does not forget its messages when the radio
// drops) and replaying the session. It is the manual recovery path for
// clients without AutoReconnect; reconnecting clients do this on their
// own.
func (d *DeviceClient) Redial(addr string) error {
	if d.opts.AutoReconnect {
		return errors.New("redial: client reconnects automatically")
	}
	if c := d.currentConn(); c != nil {
		_ = c.Close()
	}
	<-d.exited // the maintenance loop exits once the connection dies

	d.addr = addr
	conn, err := d.connect()
	if err != nil {
		return fmt.Errorf("redial proxy: %w", err)
	}
	d.revive()
	if !d.reset(conn) {
		_ = conn.Close()
		return errClientClosed
	}
	d.exited = make(chan struct{})
	go d.run(conn)
	return nil
}

// Read performs a user read: it relays the READ request (offering its best
// local IDs), waits for the proxy's pushes to land, and consumes the up-to
// n highest-ranked unexpired local notifications (n == 0 means all). With
// AutoReconnect the read survives connection loss: it is re-issued — with
// a freshly computed offer — once the session resumes.
func (d *DeviceClient) Read(topic string, n int) ([]*msg.Notification, error) {
	for {
		batch, err := d.readOnce(topic, n)
		if err == nil || !isConnLost(err) || !d.opts.AutoReconnect {
			return batch, err
		}
		if werr := d.awaitOnline(); werr != nil {
			return nil, werr
		}
	}
}

func (d *DeviceClient) readOnce(topic string, n int) ([]*msg.Notification, error) {
	d.smu.Lock()
	q, ok := d.queues[topic]
	if !ok {
		q = rankedq.NewQueue()
		d.queues[topic] = q
		d.read[topic] = make(msg.IDSet)
	}
	d.purgeExpiredLocked(topic)
	haveN := n
	if haveN == 0 || haveN > q.Len() {
		haveN = q.Len()
	}
	var clientEvents []msg.ID
	for _, h := range q.BestN(haveN) {
		clientEvents = append(clientEvents, h.ID)
	}
	req := msg.ReadRequest{Topic: topic, N: n, QueueSize: q.Len(), ClientEvents: clientEvents}
	d.smu.Unlock()

	// The OK lands after every push of this read (TCP ordering), so the
	// local queue is complete when call returns.
	if err := d.call(&Frame{Type: TypeRead, Read: &req}); err != nil {
		return nil, err
	}

	d.smu.Lock()
	defer d.smu.Unlock()
	d.purgeExpiredLocked(topic)
	take := n
	if take == 0 {
		take = q.Len()
	}
	batch := q.TakeBestN(take)
	for _, b := range batch {
		d.read[topic].Add(b.ID)
		d.traceEvent(trace.KindRead, b, "", "")
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Before(batch[j]) })
	return batch, nil
}

func (d *DeviceClient) purgeExpiredLocked(topic string) {
	q := d.queues[topic]
	if q == nil {
		return
	}
	now := time.Now()
	var stale []*msg.Notification
	q.Each(func(n *msg.Notification) {
		if n.Expired(now) {
			stale = append(stale, n)
		}
	})
	for _, n := range stale {
		q.Remove(n.ID)
		d.traceEvent(trace.KindExpire, n, "device", "expired in the device queue before a read")
	}
}

// QueueLen returns the local queue length for a topic.
func (d *DeviceClient) QueueLen(topic string) int {
	d.smu.Lock()
	defer d.smu.Unlock()
	q := d.queues[topic]
	if q == nil {
		return 0
	}
	return q.Len()
}

// ReadSet returns a copy of the IDs the user has consumed on a topic.
func (d *DeviceClient) ReadSet(topic string) msg.IDSet {
	d.smu.Lock()
	defer d.smu.Unlock()
	ids, ok := d.read[topic]
	if !ok {
		return make(msg.IDSet)
	}
	return ids.Clone()
}

// Stats returns (received, updates, rank drops applied).
func (d *DeviceClient) Stats() (received, updates, drops int) {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.received, d.updates, d.drops
}

// Reconnects reports how many times the session was automatically resumed
// after a connection loss.
func (d *DeviceClient) Reconnects() int {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.reconnects
}

// Topics lists the topics with local state, sorted.
func (d *DeviceClient) Topics() []string {
	d.smu.Lock()
	topics := make([]string, 0, len(d.queues))
	for t := range d.queues {
		topics = append(topics, t)
	}
	d.smu.Unlock()
	sort.Strings(topics)
	return topics
}
