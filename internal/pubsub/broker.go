// Package pubsub implements the topic-based publish/subscribe routing
// substrate that the paper treats as a black box: advertising and
// withdrawing topics, publishing notifications, subscribing and
// unsubscribing, and propagating rank updates. Notifications and
// subscription notices carry the volume-limiting attribute pairs
// (Rank/Expiration and Max/Threshold) end to end.
//
// A Broker is a single routing node. Brokers can be federated into an
// acyclic overlay — in-process with Connect, or across machines through
// any transport implementing Peer (see internal/wire's broker federation).
// Subscriptions propagate through the overlay and notifications are routed
// only toward brokers with matching subscribers, the standard
// subscription-flooding design of topic-based systems.
//
// Routing state is striped across shards keyed by topic hash, so
// publishes on unrelated topics never contend on a common lock, and each
// topic keeps copy-on-write subscriber and peer slices so publish fan-out
// walks a stable snapshot without holding any lock.
package pubsub

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/trace"
)

// Well-known errors callers can match with errors.Is.
var (
	ErrNotAdvertised     = errors.New("topic not advertised")
	ErrAlreadyAdvertised = errors.New("topic already advertised")
	ErrNotSubscribed     = errors.New("not subscribed")
	ErrDuplicateID       = errors.New("duplicate notification ID")
)

// Subscriber receives notifications and rank updates for its subscriptions.
// Implementations must not call back into the broker from inside the
// callback; the proxy's handlers satisfy this by scheduling follow-up work.
// Implementations that additionally satisfy SharedDeliverer opt into the
// encode-once fan-out path and receive DeliverShared instead of Deliver.
type Subscriber interface {
	// Deliver hands over a notification on a subscribed topic. The
	// notification is the subscriber's to keep: it is an isolated clone
	// checked out of burst.Notes, and the subscriber must release it with
	// burst.Notes.Put exactly once when nothing references it anymore
	// (retaining it forever merely leaks one pooled object).
	Deliver(n *msg.Notification)
	// DeliverRankUpdate hands over a rank revision for a notification
	// previously published on a subscribed topic.
	DeliverRankUpdate(u msg.RankUpdate)
}

type subscription struct {
	name string
	sub  Subscriber
	opts msg.SubscriptionOptions
}

// Peer is a neighboring broker in the federation overlay, local or remote.
// The overlay must be acyclic: routing excludes only the edge a message
// arrived on.
type Peer interface {
	// SubscribeRemote expresses interest in a topic's traffic on behalf
	// of from.
	SubscribeRemote(topic string, from Peer)
	// UnsubscribeRemote withdraws that interest.
	UnsubscribeRemote(topic string, from Peer)
	// Route forwards a notification arriving over the from edge.
	Route(n *msg.Notification, from Peer)
	// RouteUpdate forwards a rank revision arriving over the from edge.
	RouteUpdate(u msg.RankUpdate, from Peer)
}

type topicState struct {
	publisher string
	subs      map[string]*subscription
	seen      *seenSet // IDs published on this topic (duplicate suppression)
	// peers holds the neighbors that expressed interest in this topic
	// (i.e. want its notifications forwarded to them).
	peers map[Peer]struct{}
	// sent tracks the neighbors this broker has expressed interest to,
	// so interest changes propagate as deltas.
	sent map[Peer]bool

	// subsList and peerList are copy-on-write snapshots of subs (sorted
	// by subscriber name) and peers, rebuilt whenever the maps change.
	// Fan-out grabs them under the shard lock and walks them after
	// releasing it; the slices themselves are never mutated in place.
	subsList []*subscription
	peerList []Peer
}

// refreshSubs rebuilds the copy-on-write subscriber snapshot. The caller
// holds the owning shard's lock.
func (st *topicState) refreshSubs() {
	list := make([]*subscription, 0, len(st.subs))
	for _, s := range st.subs {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	st.subsList = list
}

// refreshPeers rebuilds the copy-on-write interested-peer snapshot. The
// caller holds the owning shard's lock.
func (st *topicState) refreshPeers() {
	list := make([]Peer, 0, len(st.peers))
	for p := range st.peers {
		list = append(list, p)
	}
	st.peerList = list
}

// shardCount stripes topic state; must be a power of two. 128 stripes keeps
// the chance of two concurrent publishes colliding on a stripe low even with
// dozens of publisher goroutines, at a cost of a few KB per broker.
const shardCount = 128

type shard struct {
	mu     sync.Mutex
	topics map[string]*topicState

	// publishes and routed count accepted ingress publishes and accepted
	// federation routes on this stripe (atomics, incremented outside the
	// lock; RegisterMetrics exports them per shard).
	publishes atomic.Int64
	routed    atomic.Int64
}

// topic returns the shard's state for a topic, creating it if absent. The
// caller holds sh.mu.
func (sh *shard) topic(name string) *topicState {
	st, ok := sh.topics[name]
	if !ok {
		st = &topicState{
			subs:  make(map[string]*subscription),
			seen:  newSeenSet(),
			peers: make(map[Peer]struct{}),
			sent:  make(map[Peer]bool),
		}
		sh.topics[name] = st
	}
	return st
}

// topicHashSeed is shared by every broker so equal topics hash alike in
// every process lifetime (the mapping only needs to be stable in-process).
var topicHashSeed = maphash.MakeSeed()

// Broker is one topic-based pub/sub routing node. All methods are safe for
// concurrent use.
type Broker struct {
	name string

	// pmu guards the copy-on-write overlay neighbor list. Lock order:
	// shard.mu may be held when taking pmu for reading; pmu is never held
	// while taking a shard lock with pmu held for writing.
	pmu   sync.RWMutex
	peers []Peer

	shards [shardCount]shard

	// Always-on lightweight instrumentation; RegisterMetrics exports it.
	duplicates   atomic.Int64
	peerForwards atomic.Int64
	peerDrops    atomic.Int64
	fanoutHist   atomic.Pointer[obs.Histogram]

	// tracer, when set, makes this broker a trace origin: accepted
	// publishes are head-sampled and minted a context, and routing events
	// are recorded against sampled notifications. Nil (the default) keeps
	// the publish path free of tracing work beyond one atomic load.
	tracer atomic.Pointer[trace.Collector]
}

var _ Peer = (*Broker)(nil)

// NewBroker returns an empty broker with the given node name.
func NewBroker(name string) *Broker {
	b := &Broker{name: name}
	for i := range b.shards {
		b.shards[i].topics = make(map[string]*topicState)
	}
	return b
}

// Name returns the broker's node name.
func (b *Broker) Name() string { return b.name }

// SetTracer installs (or, with nil, removes) the trace collector that makes
// this broker a distributed-trace origin. Safe to call concurrently with
// publishes.
func (b *Broker) SetTracer(c *trace.Collector) { b.tracer.Store(c) }

// shard selects the lock stripe owning a topic.
func (b *Broker) shard(topic string) *shard {
	h := maphash.String(topicHashSeed, topic)
	return &b.shards[h&(shardCount-1)]
}

// peerSnapshot returns the current overlay neighbor list; the slice is
// copy-on-write and must not be mutated.
func (b *Broker) peerSnapshot() []Peer {
	b.pmu.RLock()
	defer b.pmu.RUnlock()
	return b.peers
}

// addPeerLocked appends to the copy-on-write neighbor list. The caller
// holds pmu for writing.
func (b *Broker) addPeerLocked(p Peer) {
	next := make([]Peer, len(b.peers), len(b.peers)+1)
	copy(next, b.peers)
	b.peers = append(next, p)
}

func (b *Broker) hasPeerLocked(p Peer) bool {
	for _, existing := range b.peers {
		if existing == p {
			return true
		}
	}
	return false
}

// Connect links two in-process brokers as overlay peers. The overlay must
// remain acyclic (a tree); Connect does not verify global acyclicity but
// rejects self-links and duplicate links. Unlike the routing paths, peer
// list changes on the two sides are made atomic by locking both brokers'
// peer locks in address order; no topic shard lock is held across brokers,
// so Connect cannot deadlock against concurrent routing or reverse
// Connects.
func (b *Broker) Connect(other *Broker) error {
	if other == nil || other == b {
		return errors.New("invalid peer")
	}
	first, second := b, other
	if fmt.Sprintf("%p", first) > fmt.Sprintf("%p", second) {
		first, second = second, first
	}
	first.pmu.Lock()
	second.pmu.Lock()
	if b.hasPeerLocked(other) {
		second.pmu.Unlock()
		first.pmu.Unlock()
		return fmt.Errorf("brokers %s and %s already connected", b.name, other.name)
	}
	b.addPeerLocked(other)
	other.addPeerLocked(b)
	second.pmu.Unlock()
	first.pmu.Unlock()
	// Recompute interest on both sides so notifications start routing
	// across the new edge; deltas are computed per shard and sent with no
	// locks held.
	b.refreshInterest()
	other.refreshInterest()
	return nil
}

// AttachPeer adds a one-sided overlay edge toward a (possibly remote)
// peer; the other side attaches its own representation of this broker.
// Existing local interest is expressed to the new neighbor immediately.
func (b *Broker) AttachPeer(p Peer) error {
	if p == nil || p == Peer(b) {
		return errors.New("invalid peer")
	}
	b.pmu.Lock()
	if b.hasPeerLocked(p) {
		b.pmu.Unlock()
		return errors.New("peer already attached")
	}
	b.addPeerLocked(p)
	b.pmu.Unlock()
	b.refreshInterest()
	return nil
}

// DetachPeer removes an overlay edge (for example when a federation
// connection drops) and withdraws the interest it carried.
func (b *Broker) DetachPeer(p Peer) {
	b.pmu.Lock()
	kept := make([]Peer, 0, len(b.peers))
	for _, existing := range b.peers {
		if existing != p {
			kept = append(kept, existing)
		}
	}
	b.peers = kept
	b.pmu.Unlock()

	type delta struct {
		topic       string
		adds, drops []Peer
	}
	for i := range b.shards {
		sh := &b.shards[i]
		var deltas []delta
		sh.mu.Lock()
		for topic, st := range sh.topics {
			if _, ok := st.peers[p]; ok {
				delete(st.peers, p)
				st.refreshPeers()
			}
			delete(st.sent, p)
			adds, drops := b.interestDeltas(st)
			if len(adds)+len(drops) > 0 {
				deltas = append(deltas, delta{topic: topic, adds: adds, drops: drops})
			}
		}
		sh.mu.Unlock()
		for _, d := range deltas {
			b.sendInterest(d.topic, d.adds, d.drops)
		}
	}
}

// refreshInterest recomputes interest deltas for every topic, shard by
// shard, sending each shard's deltas with no locks held. Used after the
// neighbor set changes.
func (b *Broker) refreshInterest() {
	type delta struct {
		topic       string
		adds, drops []Peer
	}
	for i := range b.shards {
		sh := &b.shards[i]
		var deltas []delta
		sh.mu.Lock()
		for topic, st := range sh.topics {
			adds, drops := b.interestDeltas(st)
			if len(adds)+len(drops) > 0 {
				deltas = append(deltas, delta{topic: topic, adds: adds, drops: drops})
			}
		}
		sh.mu.Unlock()
		for _, d := range deltas {
			b.sendInterest(d.topic, d.adds, d.drops)
		}
	}
}

// Advertise announces that publisher will publish on the topic. A topic
// may have one publisher at a time; re-advertising by the same publisher is
// idempotent.
func (b *Broker) Advertise(topic, publisher string) error {
	if topic == "" || publisher == "" {
		return errors.New("advertise needs a topic and a publisher")
	}
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.topic(topic)
	if st.publisher != "" && st.publisher != publisher {
		return fmt.Errorf("%w: topic %q held by %q", ErrAlreadyAdvertised, topic, st.publisher)
	}
	st.publisher = publisher
	return nil
}

// Withdraw removes the publisher's claim on the topic. Existing
// subscriptions stay; they simply stop receiving events.
func (b *Broker) Withdraw(topic, publisher string) error {
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.topics[topic]
	if !ok || st.publisher != publisher {
		return fmt.Errorf("%w: %q", ErrNotAdvertised, topic)
	}
	st.publisher = ""
	return nil
}

// Subscribe registers a subscriber on a topic with its volume-limiting
// options. Re-subscribing with the same subscriber name replaces the
// options (used by context updates, §2.3).
func (b *Broker) Subscribe(s msg.Subscription, sub Subscriber) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	if sub == nil {
		return errors.New("subscribe: nil subscriber")
	}
	sh := b.shard(s.Topic)
	sh.mu.Lock()
	st := sh.topic(s.Topic)
	st.subs[s.Subscriber] = &subscription{name: s.Subscriber, sub: sub, opts: s.Options}
	st.refreshSubs()
	adds, drops := b.interestDeltas(st)
	sh.mu.Unlock()
	b.sendInterest(s.Topic, adds, drops)
	return nil
}

// interestDeltas recomputes, for every neighbor, whether this broker should
// express interest in the topic (it should when it has local subscribers or
// interest from any *other* neighbor), and returns the neighbors whose view
// must change. The caller holds the topic's shard lock; the neighbor list
// is read from its copy-on-write snapshot.
func (b *Broker) interestDeltas(st *topicState) (adds, drops []Peer) {
	for _, p := range b.peerSnapshot() {
		want := len(st.subs) > 0
		if !want {
			for q := range st.peers {
				if q != p {
					want = true
					break
				}
			}
		}
		switch {
		case want && !st.sent[p]:
			st.sent[p] = true
			adds = append(adds, p)
		case !want && st.sent[p]:
			delete(st.sent, p)
			drops = append(drops, p)
		}
	}
	return adds, drops
}

// sendInterest delivers interest deltas; it must run without holding any
// shard lock.
func (b *Broker) sendInterest(topic string, adds, drops []Peer) {
	for _, p := range adds {
		p.SubscribeRemote(topic, b)
	}
	for _, p := range drops {
		p.UnsubscribeRemote(topic, b)
	}
}

// Unsubscribe removes the subscriber from the topic.
func (b *Broker) Unsubscribe(topic, subscriber string) error {
	return b.unsubscribe(topic, subscriber, nil)
}

// UnsubscribeBound removes the subscriber from the topic only while its
// subscription is still bound to sub. A connection tearing down uses it
// so it cannot drop the subscription a newer connection rebound under the
// same name (a restarted node re-subscribing before the broker noticed
// its old connection die); it then reports nil.
func (b *Broker) UnsubscribeBound(topic, subscriber string, sub Subscriber) error {
	return b.unsubscribe(topic, subscriber, sub)
}

func (b *Broker) unsubscribe(topic, subscriber string, bound Subscriber) error {
	sh := b.shard(topic)
	sh.mu.Lock()
	st, ok := sh.topics[topic]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotSubscribed, topic)
	}
	cur, ok := st.subs[subscriber]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q on %q", ErrNotSubscribed, subscriber, topic)
	}
	if bound != nil && cur.sub != bound {
		sh.mu.Unlock()
		return nil
	}
	delete(st.subs, subscriber)
	st.refreshSubs()
	adds, drops := b.interestDeltas(st)
	sh.mu.Unlock()
	b.sendInterest(topic, adds, drops)
	return nil
}

// SubscribeRemote records that a neighbor wants this topic's traffic and
// propagates the interest change across the tree. It implements Peer.
func (b *Broker) SubscribeRemote(topic string, from Peer) {
	sh := b.shard(topic)
	sh.mu.Lock()
	st := sh.topic(topic)
	if _, dup := st.peers[from]; dup {
		sh.mu.Unlock()
		return
	}
	st.peers[from] = struct{}{}
	st.refreshPeers()
	adds, drops := b.interestDeltas(st)
	sh.mu.Unlock()
	b.sendInterest(topic, adds, drops)
}

// UnsubscribeRemote withdraws a neighbor's interest, quenching propagation
// when nobody downstream is left. It implements Peer.
func (b *Broker) UnsubscribeRemote(topic string, from Peer) {
	sh := b.shard(topic)
	sh.mu.Lock()
	st, ok := sh.topics[topic]
	if !ok {
		sh.mu.Unlock()
		return
	}
	if _, ok := st.peers[from]; !ok {
		sh.mu.Unlock()
		return
	}
	delete(st.peers, from)
	st.refreshPeers()
	adds, drops := b.interestDeltas(st)
	sh.mu.Unlock()
	b.sendInterest(topic, adds, drops)
}

// Publish routes a notification to every subscriber of its topic, here and
// across the federation. The topic must be advertised on the ingress
// broker; notification IDs must be fresh. The admission checks and the
// duplicate-suppression record share one locked pass over the topic's
// shard, so the ingress hot path takes exactly one lock round trip.
func (b *Broker) Publish(n *msg.Notification) error {
	if n == nil {
		return errors.New("publish: nil notification")
	}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	sh := b.shard(n.Topic)
	sh.mu.Lock()
	st, ok := sh.topics[n.Topic]
	if !ok || st.publisher == "" {
		sh.mu.Unlock()
		return fmt.Errorf("publish: %w: %q", ErrNotAdvertised, n.Topic)
	}
	if n.Publisher != "" && n.Publisher != st.publisher {
		sh.mu.Unlock()
		return fmt.Errorf("publish: topic %q advertised by %q, not %q", n.Topic, st.publisher, n.Publisher)
	}
	if !st.seen.Add(n.ID) {
		sh.mu.Unlock()
		b.duplicates.Add(1)
		if c := b.tracer.Load(); c != nil {
			// Anomaly: always traced, even when the original publish was
			// not head-sampled.
			c.Record(trace.Event{
				At: time.Now(), Kind: trace.KindDuplicate, Topic: n.Topic,
				ID: n.ID, Rank: n.Rank, Node: b.name,
				Cause: "duplicate notification ID rejected at ingress",
			})
		}
		return fmt.Errorf("publish: %w: %q", ErrDuplicateID, n.ID)
	}
	subs := st.subsList
	peers := st.peerList
	sh.mu.Unlock()
	sh.publishes.Add(1)

	if c := b.tracer.Load(); c != nil {
		c.PublishAccepted(n, b.name, time.Now())
	}
	b.fanOut(n, nil, subs, peers)
	return nil
}

// fanOut walks copy-on-write subscriber and peer snapshots with no lock
// held, delivering locally and forwarding to every interested peer except
// the edge the notification arrived on. The Notification structs for the
// whole local fan-out come from a single allocation; each subscriber still
// owns an isolated copy, including its own payload bytes.
func (b *Broker) fanOut(n *msg.Notification, from Peer, subs []*subscription, peers []Peer) {
	// Trace events are recorded before the deliveries and forwards they
	// describe so that timelines stay causally ordered even when a peer is
	// an in-process broker whose own routing runs synchronously.
	traced := n.Trace != nil
	var tracer *trace.Collector
	if traced {
		tracer = b.tracer.Load()
	}
	forwards := 0
	for _, p := range peers {
		if p != from {
			forwards++
		}
	}
	if tracer != nil {
		now := time.Now()
		tracer.Record(trace.Event{
			At: now, Kind: trace.KindRoute, Topic: n.Topic, ID: n.ID,
			Rank: n.Rank, TraceID: n.Trace.TraceID, Node: b.name,
			Count: len(subs),
		})
		if forwards > 0 {
			tracer.Record(trace.Event{
				At: now, Kind: trace.KindFederate, Topic: n.Topic,
				ID: n.ID, Rank: n.Rank, TraceID: n.Trace.TraceID,
				Node: b.name, Count: forwards,
			})
		}
	}
	// Shared-capable subscribers (wire connections) receive the
	// caller-owned original plus a fan-out-scoped SharedEncoding: the
	// push frame is encoded once per capability class and the same
	// ref-counted buffer rides every egress ring. Everything else gets
	// the classic isolated pooled clone (payload bytes copied into the
	// clone's retained buffer, zero steady-state allocations), ownership
	// transferring with Deliver. Peers below keep receiving the
	// caller-owned original: wire federation encodes it synchronously
	// and in-process brokers run their routing synchronously, so no peer
	// retains it past this call.
	var enc *SharedEncoding
	for _, s := range subs {
		if sd, ok := s.sub.(SharedDeliverer); ok {
			if enc == nil {
				enc = getSharedEncoding()
			}
			sd.DeliverShared(n, enc)
			continue
		}
		s.sub.Deliver(burst.Notes.CloneInto(n))
	}
	if enc != nil {
		putSharedEncoding(enc)
	}
	for _, p := range peers {
		if p != from {
			p.Route(n, b)
		}
	}
	if forwards > 0 {
		b.peerForwards.Add(int64(forwards))
	}
	if h := b.fanoutHist.Load(); h != nil {
		h.Observe(float64(len(subs) + forwards))
	}
}

// Route delivers the notification locally and forwards it to interested
// peers, excluding the edge it arrived on. It implements Peer. The fan-out
// itself runs on the copy-on-write subscriber and peer snapshots with no
// lock held, so a slow subscriber or peer never blocks routing state.
func (b *Broker) Route(n *msg.Notification, from Peer) {
	sh := b.shard(n.Topic)
	sh.mu.Lock()
	st := sh.topic(n.Topic)
	if !st.seen.Add(n.ID) {
		sh.mu.Unlock()
		b.duplicates.Add(1)
		return // already routed here (duplicate suppression)
	}
	subs := st.subsList
	peers := st.peerList
	sh.mu.Unlock()
	sh.routed.Add(1)

	if n.Trace != nil && b.tracer.Load() != nil {
		// Stamp the federation ingress onto the context so per-hop
		// timestamps survive across brokers; fanOut records the event.
		n.Trace = n.Trace.WithHop(b.name, time.Now())
	}
	b.fanOut(n, from, subs, peers)
}

// PublishRankUpdate routes a rank revision for a previously published
// notification to everyone subscribed to its topic.
func (b *Broker) PublishRankUpdate(u msg.RankUpdate) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("rank update: %w", err)
	}
	sh := b.shard(u.Topic)
	sh.mu.Lock()
	st, ok := sh.topics[u.Topic]
	if !ok || !st.seen.Contains(u.ID) {
		sh.mu.Unlock()
		return fmt.Errorf("rank update: unknown notification %q on %q", u.ID, u.Topic)
	}
	sh.mu.Unlock()
	b.RouteUpdate(u, nil)
	return nil
}

// RouteUpdate floods the update along subscription edges, excluding the
// edge it arrived on (sufficient for the required acyclic overlay; updates
// have no per-ID dedup record). It implements Peer.
func (b *Broker) RouteUpdate(u msg.RankUpdate, from Peer) {
	sh := b.shard(u.Topic)
	sh.mu.Lock()
	st, ok := sh.topics[u.Topic]
	if !ok {
		sh.mu.Unlock()
		return
	}
	subs := st.subsList
	peers := st.peerList
	sh.mu.Unlock()

	for _, s := range subs {
		s.sub.DeliverRankUpdate(u)
	}
	for _, p := range peers {
		if p != from {
			p.RouteUpdate(u, b)
		}
	}
}

// Topics returns the names of all topics with local state, sorted.
func (b *Broker) Topics() []string {
	var out []string
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for name := range sh.topics {
			out = append(out, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Subscribers returns the names of local subscribers on a topic, sorted.
func (b *Broker) Subscribers(topic string) []string {
	sh := b.shard(topic)
	sh.mu.Lock()
	st, ok := sh.topics[topic]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	subs := st.subsList
	sh.mu.Unlock()
	out := make([]string, 0, len(subs))
	for _, s := range subs {
		out = append(out, s.name)
	}
	return out
}

// SubscriptionOptions returns the options a local subscriber registered.
func (b *Broker) SubscriptionOptions(topic, subscriber string) (msg.SubscriptionOptions, bool) {
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.topics[topic]
	if !ok {
		return msg.SubscriptionOptions{}, false
	}
	s, ok := st.subs[subscriber]
	if !ok {
		return msg.SubscriptionOptions{}, false
	}
	return s.opts, true
}
