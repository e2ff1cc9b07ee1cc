package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/msg"
)

// ledger is the run's book of what was published, owed, delivered and
// read. Publishes are numbered run-wide; a notification's ID is its seq,
// so a receipt finds its schedule without any help from the program.
type ledger struct {
	w       workload
	phases  []*phase
	pubs    []pubEntry // by seq
	owed    []atomic.Int32
	sent    []atomic.Bool
	session []*sessionBook

	deliveries atomic.Int64 // first-time receipts, all sessions
	foreign    atomic.Int64 // receipts or reads of IDs never published to that session
	// traced, when set, is told of every receipt in a traced phase.
	traced func(session int, n *msg.Notification, at time.Time)
	dups   atomic.Int64 // repeats across clients, and rank revisions seen by visiting devices
}

// pubEntry locates one publish in its phase's schedule.
type pubEntry struct {
	phase uint8
	topic int32
	at    time.Duration
}

// phase is one measured (or warm-up) stretch of a run with its own
// schedules and results; its start is stored atomically because receipts
// of its notifications are timed against it from device goroutines.
type phase struct {
	name    string
	mult    float64
	dur     time.Duration
	traced  bool
	pubs    []op
	reads   []op // READs or visits
	startNs atomic.Int64

	mu sync.Mutex
	ss phaseSamples
}

// phaseSamples are the generator-side timings of one phase, in ms.
type phaseSamples struct {
	lag     []float64 // send time − scheduled time, every arrival
	pubCall []float64 // time inside PublishBatch
	read    []float64 // scheduled READ (or visit) → complete
	readIn  []float64 // time inside Read
	hello   []float64 // time inside DialProxyOpts
	failed  int       // calls that returned an error
}

func (p *phase) record(fn func(*phaseSamples)) {
	p.mu.Lock()
	fn(&p.ss)
	p.mu.Unlock()
}

func (p *phase) due(at time.Duration) int64 { return p.startNs.Load() + int64(at) }

// sessionBook is one session's receipts and reads. Pushes arrive on the
// device client's read goroutine and visits may overlap on one name, so
// it carries its own lock.
type sessionBook struct {
	mu       sync.Mutex
	topic    int32
	got      []uint64  // bitset over seq: first-time receipts
	deliver  [][]int64 // per phase: scheduled publish → receipt, ns
	fanout   [][]int64 // per phase: scheduled publish → last owed receipt, ns
	pushed   int
	consumed int
}

func newLedger(w workload, phases []*phase) *ledger {
	l := &ledger{w: w, phases: phases}
	for pi, p := range phases {
		for i := range p.pubs {
			p.pubs[i].seq = int32(len(l.pubs))
			l.pubs = append(l.pubs, pubEntry{phase: uint8(pi), topic: p.pubs[i].target, at: p.pubs[i].at})
		}
	}
	l.owed = make([]atomic.Int32, len(l.pubs))
	l.sent = make([]atomic.Bool, len(l.pubs))
	words := (len(l.pubs) + 63) / 64
	for s := 0; s < w.sessions; s++ {
		l.session = append(l.session, &sessionBook{
			topic:   int32(s % w.topics),
			got:     make([]uint64, words),
			deliver: make([][]int64, len(phases)),
			fanout:  make([][]int64, len(phases)),
		})
	}
	return l
}

// noteID names a publish so a receipt can be traced back to its schedule.
func noteID(seq int32) msg.ID { return msg.ID(strconv.Itoa(int(seq))) }

func (l *ledger) seqOf(id msg.ID) (int, bool) {
	seq, err := strconv.Atoi(string(id))
	return seq, err == nil && seq >= 0 && seq < len(l.pubs)
}

// sending books a publish before it is handed to the broker (its copies
// may reach devices before the acknowledgement returns); on on-line
// topics it owes one copy to every session of its topic.
func (l *ledger) sending(seq int32) {
	if !l.w.onDemand {
		l.owed[seq].Store(int32(l.w.fanout()))
	}
	l.sent[seq].Store(true)
}

// refused unbooks a publish the broker did not accept.
func (l *ledger) refused(seq int32) {
	l.owed[seq].Store(0)
	l.sent[seq].Store(false)
}

// receipt books one first-time push to session s.
func (l *ledger) receipt(s int, n *msg.Notification) {
	now := time.Now().UnixNano()
	b := l.session[s]
	seq, ok := l.seqOf(n.ID)
	if !ok || l.pubs[seq].topic != b.topic || !l.sent[seq].Load() {
		l.foreign.Add(1)
		return
	}
	e := l.pubs[seq]
	lat := now - l.phases[e.phase].due(e.at)
	if l.traced != nil && l.phases[e.phase].traced {
		l.traced(s, n, time.Unix(0, now))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	word, bit := seq/64, uint64(1)<<(seq%64)
	if b.got[word]&bit != 0 {
		// A client filters repeats of what it holds; a repeat reaching a
		// fresh client after a reconnect is caught here.
		l.dups.Add(1)
		return
	}
	b.got[word] |= bit
	l.deliveries.Add(1)
	b.pushed++
	b.deliver[e.phase] = append(b.deliver[e.phase], lat)
	if !l.w.onDemand && l.owed[seq].Add(-1) == 0 {
		b.fanout[e.phase] = append(b.fanout[e.phase], lat)
	}
}

// read books a READ's result on session s and reports whether every
// returned notification was one published to the session's topic.
func (l *ledger) read(s int, got []*msg.Notification) bool {
	b := l.session[s]
	ok := true
	for _, n := range got {
		seq, valid := l.seqOf(n.ID)
		if !valid || l.pubs[seq].topic != b.topic || !l.sent[seq].Load() {
			l.foreign.Add(1)
			ok = false
		}
	}
	b.mu.Lock()
	for _, n := range got {
		// Only receipts the push observer saw count as consumed pushes,
		// so waste never goes negative on pushes that raced a hello.
		if seq, valid := l.seqOf(n.ID); valid && b.got[seq/64]&(uint64(1)<<(seq%64)) != 0 {
			b.consumed++
		}
	}
	b.mu.Unlock()
	return ok
}

// owedIn counts owed on-line copies of seqs [lo, hi) not yet received.
func (l *ledger) owedIn(lo, hi int) int64 {
	var n int64
	for i := lo; i < hi; i++ {
		n += int64(l.owed[i].Load())
	}
	return n
}

// addDups books rank revisions a transient (visiting) device saw.
func (l *ledger) addDups(n int) { l.dups.Add(int64(n)) }

// deliverySamples gathers the delivery and fan-out latencies (ms) of
// notifications scheduled in phase pi.
func (l *ledger) deliverySamples(pi int) (deliver, fanout []float64) {
	for _, b := range l.session {
		b.mu.Lock()
		for _, ns := range b.deliver[pi] {
			deliver = append(deliver, float64(ns)/1e6)
		}
		for _, ns := range b.fanout[pi] {
			fanout = append(fanout, float64(ns)/1e6)
		}
		b.mu.Unlock()
	}
	return deliver, fanout
}

// waste is the §3.1 share of pushed notifications never read, in percent.
func (l *ledger) waste() (pct float64, pushed int) {
	consumed := 0
	for _, b := range l.session {
		b.mu.Lock()
		pushed += b.pushed
		consumed += b.consumed
		b.mu.Unlock()
	}
	if pushed == 0 {
		return 0, 0
	}
	return 100 * float64(pushed-consumed) / float64(pushed), pushed
}

// shortfall is one session's owed copies of a phase still missing after
// its drain: how many, and the scheduled offset of the first.
type shortfall struct {
	Session int     `json:"session"`
	Missing int     `json:"missing"`
	FirstMs float64 `json:"first_at_ms"`
}

// shortfalls lists the sessions still owed copies of seqs [lo, hi).
func (l *ledger) shortfalls(lo, hi int) []shortfall {
	var out []shortfall
	for s, b := range l.session {
		sf := shortfall{Session: s, FirstMs: -1}
		b.mu.Lock()
		for seq := lo; seq < hi; seq++ {
			if l.pubs[seq].topic != b.topic || !l.sent[seq].Load() || b.got[seq/64]&(uint64(1)<<(seq%64)) != 0 {
				continue
			}
			if sf.Missing == 0 {
				sf.FirstMs = float64(l.pubs[seq].at) / 1e6
			}
			sf.Missing++
		}
		b.mu.Unlock()
		if sf.Missing > 0 {
			out = append(out, sf)
		}
	}
	return out
}
