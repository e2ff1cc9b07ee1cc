package host

import (
	"errors"
	"slices"
	"sync"

	"lasthop/internal/burst"
	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
	"lasthop/internal/spool"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// Session is one device's last-hop state inside a host: an unmodified
// core.Proxy scheduled on its worker's timing wheel, plus the currently
// attached connection (nil while the device is away — the proxy then
// spools, exactly as during a simulated outage).
//
// All proxy calls are serialized by the worker wheel's callback mutex
// (wheel.Run), so a session's core state is single-threaded even though
// device frames, upstream pushes, and wheel timers arrive on different
// goroutines.
type Session struct {
	host *Host
	name string
	w    *worker

	// proxy is nil until the first hello's attach callback builds it and
	// while the session is hibernated (its state then lives in the spool
	// chain below). Written only from wheel callbacks.
	proxy *core.Proxy

	// helloMu serializes hello handling (attach plus the hello reply) per
	// session, so a connection superseded by a racing hello has its reply
	// queued before the winner closes it.
	helloMu sync.Mutex

	mu      sync.Mutex
	conn    *wire.Conn
	batch   bool
	traceOK bool
	topics  map[string]struct{}

	// Lifecycle (guarded by mu; transitions run on the wheel). snap and
	// deltas are the session's spool chain: the latest snapshot plus every
	// record appended since. With a spool, the chain is current in every
	// state — resident sessions write ahead too — so replaying it rebuilds
	// the proxy's upstream input after a crash.
	state  sessionState
	snap   spool.Loc
	deltas []spool.Loc

	// Hibernation countdown; touched only from wheel callbacks.
	hibTimer simtime.Timer
	hibArmed bool

	connects int
	resumes  int
}

var (
	_ core.Forwarder      = (*Session)(nil)
	_ core.BatchForwarder = (*Session)(nil)
)

// newSession builds the session's directory entry. It takes no lock and
// enters no wheel, so it is safe under Host.mu; the proxy itself is built
// by the first attach, on the worker wheel.
func newSession(h *Host, name string, w *worker) *Session {
	return &Session{host: h, name: name, w: w, topics: make(map[string]struct{})}
}

// newProxy builds an empty proxy bound to the session's wheel, offline
// until syncNetwork sees a connection. Runs on the wheel.
func (s *Session) newProxy() *core.Proxy {
	p := core.New(s.w.wheel, s)
	if s.host.opts.Trace != nil {
		p.SetTracer(sessionTracer{node: s.name, t: s.host.opts.Trace})
	}
	// Upstream arrivals are pooled; the proxy recycles every reference it
	// drops (forwarding serializes onto the wire first).
	p.SetReleaser(burst.Notes.Put)
	p.SetNetwork(false)
	return p
}

// sessionTracer fills the session's name into core events that do not name
// a node, so one shared collector attributes queue decisions per device.
type sessionTracer struct {
	node string
	t    trace.Tracer
}

func (st sessionTracer) Record(e trace.Event) {
	if e.Node == "" {
		e.Node = st.node
	}
	st.t.Record(e)
}

// attach binds a (re)connecting device connection to the session,
// superseding a stale one.
func (s *Session) attach(conn *wire.Conn, batch, traceOK bool) {
	s.mu.Lock()
	old := s.conn
	s.conn = conn
	s.batch = batch
	s.traceOK = traceOK
	s.connects++
	s.mu.Unlock()
	if old != nil && old != conn {
		_ = old.Close()
	}
	s.w.wheel.Run(func() {
		s.ensureResident()
		s.syncNetwork()
	})
}

// detach marks the device gone if conn is still the session's connection;
// a connection superseded by a reconnect detaches as a no-op.
func (s *Session) detach(conn *wire.Conn) {
	s.mu.Lock()
	if s.conn != conn {
		s.mu.Unlock()
		return
	}
	s.conn = nil
	s.mu.Unlock()
	if hook := s.host.testHookDetachGap.Load(); hook != nil {
		(*hook)(s.name)
	}
	s.w.wheel.Run(s.syncNetwork)
}

// syncNetwork tells the proxy whether a device is attached, reading s.conn
// as it is now rather than trusting the caller: an attach and a detach
// racing for the wheel may run in either order, and whichever runs last
// must leave the proxy matching the live connection. Runs on the wheel.
func (s *Session) syncNetwork() {
	if s.proxy == nil {
		return // hibernated: there is no proxy to tell
	}
	s.mu.Lock()
	up := s.conn != nil
	s.mu.Unlock()
	s.proxy.SetNetwork(up)
	if up {
		s.cancelHibernate()
	} else {
		s.armHibernate()
	}
}

// closeConn drops the session's connection (host shutdown).
func (s *Session) closeConn() {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Forward implements core.Forwarder by pushing to the attached device.
func (s *Session) Forward(n *msg.Notification) error {
	s.mu.Lock()
	conn, withTrace := s.conn, s.traceOK
	s.mu.Unlock()
	if conn == nil {
		return errors.New("no device connected")
	}
	return wire.PushNotification(conn, n, withTrace)
}

// ForwardBatch implements core.BatchForwarder with chunked batch frames.
func (s *Session) ForwardBatch(batch []*msg.Notification) error {
	s.mu.Lock()
	conn, batching, withTrace := s.conn, s.batch, s.traceOK
	s.mu.Unlock()
	if conn == nil {
		return errors.New("no device connected")
	}
	return wire.PushBatch(conn, batch, batching, withTrace)
}

// errNotResident rejects proxy-driving frames from a connection whose
// session hibernated under it. Only a connection superseded by a reconnect
// can observe this: the live connection's hello made the session resident
// and keeps it so. The superseded device must hello again.
var errNotResident = errors.New("session not resident")

// read serves one §3.5 READ against the session's proxy.
func (s *Session) read(req msg.ReadRequest) error {
	var rerr error
	s.w.wheel.Run(func() {
		if s.proxy == nil {
			rerr = errNotResident
			return
		}
		rerr = s.proxy.Read(req)
	})
	return rerr
}

// resume reconciles a reconnecting device's per-topic read/queue ID sets.
func (s *Session) resume(f *wire.Frame) error {
	if f.Topic == "" {
		return errors.New("resume frame without topic")
	}
	have := msg.NewIDSet(f.HaveIDs...)
	read := msg.NewIDSet(f.ReadIDs...)
	var rerr error
	s.w.wheel.Run(func() {
		if s.proxy == nil {
			rerr = errNotResident
			return
		}
		rerr = s.proxy.Resume(f.Topic, have, read)
	})
	if rerr != nil {
		return rerr
	}
	s.mu.Lock()
	s.resumes++
	s.mu.Unlock()
	if s.host.opts.Metrics != nil {
		s.host.opts.Metrics.ResumeReconciliations.Inc()
	}
	return nil
}

// addTopicDurably adds the topic to the proxy and, with a spool, re-bases
// the chain on a snapshot that already holds the topic's configuration —
// in the same wheel callback, before the upstream subscription can deliver
// anything — so every later delta replays onto a known topic. A failed
// snapshot leaves the topic added; the old chain then lacks it until the
// next re-base. Runs on the wheel.
func (s *Session) addTopicDurably(cfg core.TopicConfig) error {
	if err := s.proxy.AddTopic(cfg); err != nil {
		return err
	}
	if s.w.spool != nil {
		topics := s.topicList()
		if !slices.Contains(topics, cfg.Name) {
			topics = append(topics, cfg.Name)
		}
		s.rebase(topics, nil)
	}
	return nil
}

func (s *Session) hasTopic(topic string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.topics[topic]
	return ok
}

func (s *Session) addTopic(topic string) {
	s.mu.Lock()
	s.topics[topic] = struct{}{}
	s.mu.Unlock()
}

func (s *Session) removeTopic(topic string) {
	s.mu.Lock()
	delete(s.topics, topic)
	s.mu.Unlock()
}

func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		Name:      s.name,
		Worker:    s.w.id,
		Connected: s.conn != nil,
		State:     s.state.String(),
		Connects:  s.connects,
		Resumes:   s.resumes,
		Topics:    len(s.topics),
	}
}
