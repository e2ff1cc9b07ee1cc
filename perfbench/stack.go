package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/host"
	"lasthop/internal/metrics"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/pubsub"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

const (
	// opTimeout is every call's deadline: dials through the client's own
	// timeout, everything else through the run's monitor.
	opTimeout = 5 * time.Second
	// traceSample is the head-sampling rate of the traced run.
	traceSample = 0.2
	publisher   = "perfbench"
)

// stack is one in-process deployment: publishers → wire → pubsub broker →
// host (upstream mux, per-session core.Proxy, spool) → wire → devices.
type stack struct {
	w workload
	// reg holds the wire, pool, broker and trace families, which read
	// atomics only and stay scrapeable while the host is wedged; hostReg
	// holds the host's, whose sampling takes Host.mu.
	reg, hostReg *obs.Registry
	wm           *wire.Metrics
	trace        *trace.Collector
	sampler      *trace.Sampler
	bs           *wire.BrokerServer
	h            *host.Host
	hostAddr     string
	spoolDir     string
	topics       []string
	pubs         []*wire.BrokerClient
	devs         []*wire.DeviceClient // resident sessions; nil while offline
}

func sessionName(i int) string { return fmt.Sprintf("dev-%04d", i) }

func (s *stack) policy() wire.TopicPolicy {
	if s.w.onDemand {
		return wire.TopicPolicy{Mode: "on-demand", Max: s.w.readMax, HistoryLimit: historyLimit}
	}
	return wire.TopicPolicy{Mode: "on-line", HistoryLimit: historyLimit}
}

func (s *stack) clientOpts() wire.ClientOptions {
	return wire.ClientOptions{Metrics: s.wm, Trace: s.trace, DialTimeout: opTimeout}
}

// buildStack starts the broker and host and dials the publishers. Sessions
// are registered separately (register) so set-up can be timed around the
// public hello path.
func buildStack(w workload, traced bool, dir string) (*stack, error) {
	s := &stack{w: w, reg: obs.NewRegistry(), hostReg: obs.NewRegistry()}
	s.wm = wire.NewMetrics(s.reg)
	burst.RegisterMetrics(s.reg)
	metrics.Register(s.reg)
	if traced {
		s.sampler = trace.NewSampler(traceSample)
		s.trace = trace.NewCollector("perfbench", s.sampler, 1<<16)
		s.trace.RegisterMetrics(s.reg)
	}
	for i := 0; i < w.topics; i++ {
		s.topics = append(s.topics, fmt.Sprintf("bench/t%03d", i))
	}

	blis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	broker := pubsub.NewBroker("perfbench-broker")
	broker.RegisterMetrics(s.reg)
	if s.trace != nil {
		broker.SetTracer(s.trace)
	}
	s.bs = wire.NewBrokerServerOpts(broker, wire.ServerOptions{Metrics: s.wm})
	go func() { _ = s.bs.Serve(blis) }()

	opts := host.Options{
		BrokerAddr: blis.Addr().String(),
		Name:       "perfbench-host",
		Metrics:    s.wm,
		Trace:      s.trace,
	}
	if w.intermittent {
		if s.spoolDir, err = os.MkdirTemp(dir, "spool-"); err != nil {
			s.close()
			return nil, err
		}
		opts.SpoolDir = s.spoolDir
		opts.HibernateAfter = w.hibernateAfter
	}
	if s.h, err = host.New(opts); err != nil {
		s.close()
		return nil, fmt.Errorf("host: %w", err)
	}
	s.h.RegisterMetrics(s.hostReg, "perfbench-host")
	hlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	go func() { _ = s.h.Serve(hlis) }()
	s.hostAddr = hlis.Addr().String()

	for i := 0; i < runtime.NumCPU(); i++ {
		pub, err := wire.DialBrokerOpts(blis.Addr().String(), fmt.Sprintf("pub-%d", i), s.clientOpts())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("publisher %d: %w", i, err)
		}
		s.pubs = append(s.pubs, pub)
		for _, t := range s.topics {
			if err := pub.Advertise(t, publisher); err != nil {
				s.close()
				return nil, fmt.Errorf("advertise %s: %w", t, err)
			}
		}
	}
	s.devs = make([]*wire.DeviceClient, w.sessions)
	return s, nil
}

// register creates every session through the public hello path, as
// devices would, one registering goroutine per deadline slot: dial,
// subscribe, and — for intermittent devices — hang up again. Resident
// devices keep their connection and report pushes to onPush.
func (s *stack) register(slots []*worker, onPush func(session int, n *msg.Notification)) error {
	errs := make(chan error, len(slots))
	for g, slot := range slots {
		go func(g int, slot *worker) {
			defer slot.busy.Store(0)
			for i := g; i < s.w.sessions; i += len(slots) {
				slot.busy.Store(time.Now().UnixNano())
				if err := s.registerOne(i, onPush); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g, slot)
	}
	var first error
	for range slots {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *stack) registerOne(i int, onPush func(session int, n *msg.Notification)) error {
	dev, err := wire.DialProxyOpts(s.hostAddr, sessionName(i), s.clientOpts())
	if err != nil {
		return fmt.Errorf("register %s: %w", sessionName(i), err)
	}
	if err := dev.Subscribe(s.topics[i%s.w.topics], s.policy()); err != nil {
		_ = dev.Close()
		return fmt.Errorf("subscribe %s: %w", sessionName(i), err)
	}
	if s.w.intermittent {
		return dev.Close()
	}
	dev.SetOnPush(func(n *msg.Notification) { onPush(i, n) })
	s.devs[i] = dev
	return nil
}

// hangUp disconnects every resident device; the sessions stay on the
// host. It returns the rank revisions the clients saw.
func (s *stack) hangUp(slot *worker) int {
	defer slot.busy.Store(0)
	slot.busy.Store(time.Now().UnixNano())
	dups := s.duplicates()
	for i, d := range s.devs {
		if d != nil {
			_ = d.Close()
			s.devs[i] = nil
		}
	}
	return dups
}

// duplicates sums the rank revisions the resident devices saw; the load
// publishes none, so each one is a duplicate delivery.
func (s *stack) duplicates() int {
	n := 0
	for _, d := range s.devs {
		if d != nil {
			_, updates, _ := d.Stats()
			n += updates
		}
	}
	return n
}

// close tears the deployment down, devices first so no push is in flight
// when the host goes. It must not run while the host is wedged: Host.Close
// takes Host.mu.
func (s *stack) close() {
	for i, d := range s.devs {
		if d != nil {
			_ = d.Close()
			s.devs[i] = nil
		}
	}
	for _, p := range s.pubs {
		_ = p.Close()
	}
	s.pubs = nil
	if s.h != nil {
		s.h.Close()
	}
	if s.bs != nil {
		s.bs.Close()
	}
	if s.spoolDir != "" {
		_ = os.RemoveAll(s.spoolDir)
	}
}
