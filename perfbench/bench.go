package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/dist"
	"lasthop/internal/flight"
	"lasthop/internal/msg"
	"lasthop/internal/wire"
)

// warmup runs the fixed rate before any measured phase so pools, GC pacing
// and connection buffers reach steady state.
const warmup = time.Second

// drainGrace bounds how long a phase waits after its last arrival for the
// copies it still owes.
const drainGrace = 3 * time.Second

// run is one process's benchmark: it owns the deadline monitor and the
// wedge signal shared by every stack it builds.
type run struct {
	w      workload
	seed   uint64
	out    string
	spans  *spanLog
	slots  []*worker
	wedged chan struct{}
	once   sync.Once
	why    string // set once, before wedged closes
	cur    *stack // the stack being set up or measured
}

func newRun(w workload, seed uint64, out string) *run {
	r := &run{w: w, seed: seed, out: out, wedged: make(chan struct{})}
	for i := 0; i < 2*runtime.NumCPU()+1; i++ {
		r.slots = append(r.slots, &worker{})
	}
	go r.monitor()
	return r
}

// pubSlots, readSlots and regSlot hand out the deadline slots of the
// publishers, the readers and the set-up calls.
func (r *run) pubSlots() []*worker  { return r.slots[:runtime.NumCPU()] }
func (r *run) readSlots() []*worker { return r.slots[runtime.NumCPU() : 2*runtime.NumCPU()] }
func (r *run) regSlot() *worker     { return r.slots[2*runtime.NumCPU()] }

func (r *run) wedge(why string) {
	r.once.Do(func() {
		r.why = why
		close(r.wedged)
	})
}

// monitor fails any call that outlives opTimeout. It reads only the
// workers' atomics, never the host.
func (r *run) monitor() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for range t.C {
		now := time.Now().UnixNano()
		for i, s := range r.slots {
			if b := s.busy.Load(); b != 0 && time.Duration(now-b) > opTimeout {
				r.wedge(fmt.Sprintf("call on worker slot %d exceeded its %v deadline", i, opTimeout))
				return
			}
		}
	}
}

// await runs fn and returns its error, or errWedged once the run wedges;
// fn's goroutine is then abandoned — the process exits soon after.
func (r *run) await(fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-r.wedged:
		return errWedged
	}
}

var errWedged = fmt.Errorf("run wedged")

// watch starts the program's own stall watchdog over a stack: worker
// heartbeats and spool group commits (host.Probes), egress flushers and
// pool drift, at the proxy daemon's interval and bounds. A trip writes a
// lasthop-doctor bundle and wedges the run. Nothing here calls
// Host.Lifecycle or Sessions: both block on a wedged Host.mu.
func (r *run) watch(s *stack) *flight.Watchdog {
	wd := flight.NewWatchdog(2 * time.Second)
	wd.Register(s.h.Probes(5*time.Second, 10*100*time.Millisecond+5*time.Second)...)
	wd.Register(wire.FlusherStallProbe(5*time.Second, 1))
	wd.Register(burst.DriftProbes(10, 100_000)...)
	wd.OnTrip(func(trips []flight.Trip) {
		path := r.dump(s, "watchdog", trips)
		r.wedge(fmt.Sprintf("watchdog: %s (bundle %s)", trips[0], path))
	})
	wd.Start()
	return wd
}

// dump writes a lasthop-doctor bundle of the flight recorder and the
// stack's atomics-only metrics, and returns its path.
func (r *run) dump(s *stack, reason string, trips []flight.Trip) string {
	o := flight.BundleOptions{
		Dir: filepath.Join(r.out, "bundles"), Node: "perfbench-" + r.w.name, Reason: reason,
		Trips: trips, Recorder: flight.Active(),
	}
	if s != nil {
		o.Metrics = s.reg
	}
	path, err := flight.WriteBundle(o)
	if err != nil {
		return "bundle failed: " + err.Error()
	}
	return path
}

// spec is a phase to plan: its name, load multiplier and length.
type spec struct {
	name   string
	mult   float64
	dur    time.Duration
	traced bool
}

// plan draws every phase's schedules from the seed. The program only ever
// sees what these produce.
func plan(w workload, seed uint64, specs []spec) []*phase {
	g := dist.New(seed)
	var out []*phase
	for _, sp := range specs {
		p := &phase{name: sp.name, mult: sp.mult, dur: sp.dur, traced: sp.traced}
		p.pubs = poisson(g.Split("publish/"+sp.name), w.publishRate*sp.mult, sp.dur, w.topics)
		switch {
		case w.visitRate > 0:
			p.reads = poisson(g.Split("visit/"+sp.name), w.visitRate*sp.mult, sp.dur, w.sessions)
		case w.readRate > 0:
			p.reads = poisson(g.Split("read/"+sp.name), w.readRate*sp.mult, sp.dur, w.sessions)
		}
		out = append(out, p)
	}
	return out
}

// deployment is one set-up stack with its ledger and schedules.
type deployment struct {
	r        *run
	st       *stack
	l        *ledger
	wd       *flight.Watchdog
	setup    time.Duration
	setupCPU time.Duration // process CPU spent setting up

	results     []*phaseResult
	undelivered int64 // owed on-line copies never received
	dups        int
	hostFigures
}

// deploy plans the schedules, builds the stack and registers every
// session, timing the whole as one set-up.
func (r *run) deploy(specs []spec, traced bool, since time.Time) (*deployment, error) {
	d := &deployment{r: r}
	cpu0 := processCPU()
	if since.Equal(processStart) {
		cpu0 = 0
	}
	err := r.await(func() error {
		d.l = newLedger(r.w, plan(r.w, r.seed, specs))
		if traced {
			d.l.traced = func(s int, n *msg.Notification, at time.Time) {
				if d.st.sampler.Sample(n.Topic, n.ID) {
					r.spans.add(span{Trace: string(n.ID), Name: "push", Start: at, End: at, Session: s})
				}
			}
		}
		st, err := buildStack(r.w, traced, r.out)
		if err != nil {
			return err
		}
		d.st = st
		r.cur = st
		d.wd = r.watch(st)
		return st.register(r.readSlots(), d.l.receipt)
	})
	d.setup = time.Since(since)
	d.setupCPU = processCPU() - cpu0
	return d, err
}

// teardown stops the stack; the caller must know the host is not wedged.
func (d *deployment) teardown() {
	if d.wd != nil {
		d.wd.Close()
	}
	d.dups += d.st.duplicates()
	d.st.close()
}

// counters is a snapshot of the process-wide counters a phase is charged.
type counters struct {
	cpu        time.Duration
	deliveries int64
	flushes    uint64
	frames     float64
	bytesOut   int64
	mallocs    uint64
	allocBytes uint64
	pauseNs    uint64
	pool       burst.PoolStats
	steal      int64 // hypervisor steal and total jiffies, from /proc/stat
	jiffies    int64
}

func (d *deployment) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, total := cpuJiffies()
	return counters{
		cpu:        processCPU(),
		deliveries: d.l.deliveries.Load(),
		flushes:    d.st.wm.FlushFrames.Count(),
		frames:     d.st.wm.FlushFrames.Sum(),
		bytesOut:   d.st.wm.BytesOut.Value(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
		pool:       burst.Notes.Stats(),
		steal:      steal,
		jiffies:    total,
	}
}

// cpuJiffies reads the machine's steal and total CPU time: on a shared
// virtual machine, time the hypervisor took away shows up as latency but
// not as process CPU.
func cpuJiffies() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var name string
	var f [8]int64
	if n, _ := fmt.Sscan(string(b), &name, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); n < 9 || name != "cpu" {
		return 0, 0
	}
	for _, v := range f {
		total += v
	}
	return f[7], total
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's resident set from /proc.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// phaseResult is what one phase measured.
type phaseResult struct {
	p          *phase
	before     counters
	after      counters
	deliver    []float64 // ms, scheduled publish → receipt
	fanout     []float64 // ms, scheduled publish → last owed receipt
	unsentPubs int       // arrivals never handed out before the phase's deadline
	unsentRead int
	unsent     int
	carried    float64 // receipts/s from a quarter into the phase to its scheduled end
	undeliv    int64   // owed copies still missing after the drain
	short      []shortfall
	deliveries int // copies of this phase's notifications received
}

// runPhase replays one phase's schedules open-loop and drains what it owes.
func (d *deployment) runPhase(pi int) (*phaseResult, error) {
	p := d.l.phases[pi]
	res := &phaseResult{p: p, before: d.snapshot()}
	start := time.Now().Add(5 * time.Millisecond)
	p.startNs.Store(start.UnixNano())
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(p.dur+2*time.Second))
	defer cancel()
	pq, rq := newQueue(start, p.pubs), newQueue(start, p.reads)
	// Receipts carried over the phase's second to fourth quarter: below
	// capacity that is the offered rate, above it the host's throughput.
	var from, to atomic.Int64
	settle := time.AfterFunc(time.Until(start.Add(p.dur/4)), func() { from.Store(d.l.deliveries.Load()) })
	end := time.AfterFunc(time.Until(start.Add(p.dur)), func() { to.Store(d.l.deliveries.Load()) })
	defer settle.Stop()
	defer end.Stop()
	err := d.r.await(func() error {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); drive(ctx, pq, d.r.pubSlots(), 512, d.publish(p), d.published(p)) }()
		go func() { defer wg.Done(); drive(ctx, rq, d.r.readSlots(), 1, d.readOp(p), d.readDone(p)) }()
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for time.Now().Before(start.Add(p.dur)) {
		time.Sleep(time.Until(start.Add(p.dur)) + time.Millisecond)
	}
	for to.Load() == 0 && from.Load() != 0 {
		time.Sleep(time.Millisecond) // the end sample's timer is due
	}
	res.carried = float64(to.Load()-from.Load()) / (p.dur * 3 / 4).Seconds()
	res.unsentPubs, res.unsentRead = pq.remaining(), rq.remaining()
	res.unsent = res.unsentPubs + res.unsentRead
	lo, hi := d.seqRange(pi)
	deadline := time.Now().Add(drainGrace)
	for d.l.owedIn(lo, hi) > 0 && time.Now().Before(deadline) {
		select {
		case <-d.r.wedged:
			return nil, errWedged
		case <-time.After(2 * time.Millisecond):
		}
	}
	res.undeliv = d.l.owedIn(lo, hi)
	if res.undeliv > 0 {
		res.short = d.l.shortfalls(lo, hi)
	}
	res.after = d.snapshot()
	res.deliver, res.fanout = d.l.deliverySamples(pi)
	res.deliveries = len(res.deliver)
	return res, nil
}

func (d *deployment) seqRange(pi int) (lo, hi int) {
	for _, p := range d.l.phases[:pi] {
		lo += len(p.pubs)
	}
	return lo, lo + len(d.l.phases[pi].pubs)
}

// publish returns the publisher call for phase p: one PublishBatch of
// pooled notifications per due batch.
func (d *deployment) publish(p *phase) func(int, []op) error {
	payload := make([]byte, d.r.w.payload)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	return func(w int, batch []op) error {
		notes := make([]*msg.Notification, len(batch))
		for i, o := range batch {
			n := burst.Notes.Get()
			n.ID = noteID(o.seq)
			n.Topic = d.st.topics[o.target]
			n.Publisher = publisher
			n.Rank = float64(o.rank)
			n.Published = time.Unix(0, p.due(o.at))
			n.Payload = append(n.Payload[:0], payload...)
			notes[i] = n
			d.l.sending(o.seq)
		}
		errs := d.st.pubs[w].PublishBatch(notes)
		var first error
		failed := 0
		for i, err := range errs {
			if err != nil {
				d.l.refused(batch[i].seq)
				failed++
				if first == nil {
					first = fmt.Errorf("publish %s: %w", notes[i].ID, err)
				}
			}
		}
		if failed > 0 {
			p.record(func(s *phaseSamples) { s.failed += failed })
		}
		for _, n := range notes {
			burst.Notes.Put(n)
		}
		return first
	}
}

func (d *deployment) published(p *phase) func(int, []op, time.Time, time.Time, error) {
	return func(w int, batch []op, sent, end time.Time, err error) {
		p.record(func(s *phaseSamples) {
			for _, o := range batch {
				s.lag = append(s.lag, msSince(p.due(o.at), sent))
			}
			s.pubCall = append(s.pubCall, float64(end.Sub(sent))/1e6)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		if p.traced {
			for _, o := range batch {
				id := noteID(o.seq)
				if d.st.sampler.Sample(d.st.topics[o.target], id) {
					d.r.spans.add(span{Trace: string(id), Name: "publish", Start: sent, End: end, Worker: w})
				}
			}
		}
	}
}

func msSince(dueNs int64, t time.Time) float64 { return float64(t.UnixNano()-dueNs) / 1e6 }

// readOp returns the reader call for phase p: a READ on a resident session
// or, for intermittent devices, a whole visit (hello, READ, close).
func (d *deployment) readOp(p *phase) func(int, []op) error {
	return func(w int, batch []op) error {
		o := batch[0]
		s := int(o.target)
		topic := d.st.topics[s%d.r.w.topics]
		dev := d.st.devs[s]
		visit := dev == nil
		if visit {
			t0 := time.Now()
			var err error
			dev, err = wire.DialProxyOpts(d.st.hostAddr, sessionName(s), d.st.clientOpts())
			t1 := time.Now()
			p.record(func(ss *phaseSamples) { ss.hello = append(ss.hello, float64(t1.Sub(t0))/1e6) })
			if p.traced {
				d.r.spans.add(span{Trace: visitID(o), Name: "hello", Start: t0, End: t1, Worker: w, Session: s})
			}
			if err != nil {
				return err
			}
			dev.SetOnPush(func(n *msg.Notification) { d.l.receipt(s, n) })
		}
		t0 := time.Now()
		got, err := dev.Read(topic, d.r.w.readMax)
		t1 := time.Now()
		p.record(func(ss *phaseSamples) {
			ss.readIn = append(ss.readIn, float64(t1.Sub(t0))/1e6)
			if err == nil {
				ss.read = append(ss.read, msSince(p.due(o.at), t1))
			}
		})
		if p.traced {
			op := visitID(o)
			d.r.spans.add(span{Trace: op, Name: "read", Start: t0, End: t1, Worker: w, Session: s, N: len(got)})
			for _, n := range got {
				if d.st.sampler.Sample(n.Topic, n.ID) {
					d.r.spans.add(span{Trace: string(n.ID), Parent: op, Name: "read", Start: t0, End: t1, Worker: w, Session: s})
				}
			}
		}
		if err == nil && !d.l.read(s, got) {
			err = fmt.Errorf("read on %s returned notifications never published to its topic", sessionName(s))
		}
		if visit {
			t2 := time.Now()
			_, updates, _ := dev.Stats()
			_ = dev.Close()
			if p.traced {
				d.r.spans.add(span{Trace: visitID(o), Name: "close", Start: t2, End: time.Now(), Worker: w, Session: s})
			}
			d.l.addDups(updates)
		}
		return err
	}
}

func visitID(o op) string { return fmt.Sprintf("op-%d-%d", o.target, int64(o.at)) }

func (d *deployment) readDone(p *phase) func(int, []op, time.Time, time.Time, error) {
	return func(w int, batch []op, sent, end time.Time, err error) {
		o := batch[0]
		p.record(func(s *phaseSamples) {
			s.lag = append(s.lag, msSince(p.due(o.at), sent))
			if err != nil {
				s.failed++
			}
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
}
