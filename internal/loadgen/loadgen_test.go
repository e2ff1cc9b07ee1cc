package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lasthop/internal/trace"
)

func TestRunOnline(t *testing.T) {
	rep, err := Run(Config{
		Publishers:    2,
		Devices:       3,
		Topics:        2,
		Notifications: 60,
		PayloadBytes:  64,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Published != 60 {
		t.Fatalf("published %d, want 60", rep.Published)
	}
	// Topic 0 gets 30 notifications and has two subscribers (devices 0
	// and 2); topic 1 gets 30 with one subscriber: 90 deliveries.
	if rep.Delivered != 90 {
		t.Fatalf("delivered %d, want 90", rep.Delivered)
	}
	if rep.PublishPerSec <= 0 || rep.DeliverPerSec <= 0 {
		t.Fatalf("rates not computed: %+v", rep)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Fatalf("latency quantiles not computed: p50=%v p95=%v p99=%v",
			rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms)
	}
	// The report samples pool residency after teardown drains, so a clean
	// run must account for every checked-out notification.
	if rep.PoolOutstanding != 0 {
		t.Fatalf("post-drain pool outstanding %d, want 0", rep.PoolOutstanding)
	}
	if rep.Config.PublishWindow < 1 {
		t.Fatalf("publish window %d not resolved in report config", rep.Config.PublishWindow)
	}
}

// TestRunObsEndpoint drives a run with the observability endpoint enabled
// and scrapes /metrics concurrently with the traffic (run under -race this
// doubles as the data-race check on every instrumented hot path). The
// final scrape must carry the core per-topic families, the wire frame and
// batch-size families, the pubsub publish counters, and the loadgen
// latency histogram.
func TestRunObsEndpoint(t *testing.T) {
	cfg := Config{
		Publishers:    2,
		Devices:       2,
		Topics:        2,
		Notifications: 200,
		PayloadBytes:  32,
		// Fixed port so the scrapers know the address before Run binds it;
		// they retry until it comes up.
		ObsAddr: "127.0.0.1:17479",
		Timeout: 30 * time.Second,
	}

	stop := make(chan struct{})
	var swg sync.WaitGroup
	for i := 0; i < 4; i++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + cfg.ObsAddr + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	cfg.Linger = 250 * time.Millisecond
	var (
		body string
		lerr error
		lwg  sync.WaitGroup
	)
	lwg.Add(1)
	go func() {
		// One scrape taken while the topology is still alive (the run
		// lingers past the last delivery) feeds the family assertions.
		defer lwg.Done()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + cfg.ObsAddr + "/metrics")
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			b, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err == nil && strings.Contains(string(b), "lasthop_loadgen_delivery_latency_seconds_count") &&
				!strings.Contains(string(b), "lasthop_loadgen_delivery_latency_seconds_count 0\n") {
				body, lerr = string(b), nil
				return
			}
			lerr = fmt.Errorf("scrape incomplete")
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rep, err := Run(cfg)
	close(stop)
	swg.Wait()
	lwg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", rep)
	}
	if lerr != nil || body == "" {
		t.Fatalf("no complete scrape captured: %v", lerr)
	}
	for _, family := range []string{
		"lasthop_core_topic_queue_depth",
		"lasthop_core_topic_prefetch_limit",
		"lasthop_core_forwards_total",
		"lasthop_core_reads_total",
		"lasthop_core_waste_pct",
		"lasthop_core_conservation_violations_total",
		"lasthop_pubsub_publishes_total",
		"lasthop_pubsub_fanout_width_bucket",
		"lasthop_pubsub_seen_ids",
		"lasthop_wire_frames_out_total",
		"lasthop_wire_batch_size_bucket",
		"lasthop_wire_flush_frames_bucket",
		"lasthop_loadgen_delivery_latency_seconds_bucket",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
}

func TestRunOnDemand(t *testing.T) {
	rep, err := Run(Config{
		Publishers:    2,
		Devices:       2,
		Notifications: 40,
		OnDemand:      true,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 40 {
		t.Fatalf("delivered %d, want 40", rep.Delivered)
	}
}

// TestRunTraced drives a fully-sampled run and checks the tentpole
// invariant: every sampled notification is attributed to exactly one
// terminal outcome with a complete causal timeline, and the report carries
// per-hop latency quantiles.
func TestRunTraced(t *testing.T) {
	const n = 80
	rep, err := Run(Config{
		Publishers:    2,
		Devices:       2,
		Topics:        2,
		Notifications: n,
		OnDemand:      true,
		TraceSample:   1,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceSampled != n {
		t.Fatalf("sampled %d traces, want %d", rep.TraceSampled, n)
	}
	var completed uint64
	for outcome, count := range rep.TraceOutcomes {
		if outcome == "" {
			t.Errorf("%d traces completed without an outcome", count)
		}
		completed += count
	}
	if completed != n {
		t.Fatalf("outcomes cover %d traces, want %d: %v", completed, n, rep.TraceOutcomes)
	}
	// A clean fully-sampled run must never report a conservation
	// violation, and the waste accounting must be a valid percentage.
	if rep.TraceConservation != "" {
		t.Fatalf("clean run reported a conservation violation: %s", rep.TraceConservation)
	}
	if rep.WastePct < 0 || rep.WastePct > 100 {
		t.Fatalf("waste %.2f%% out of range", rep.WastePct)
	}
	if rep.Collector == nil {
		t.Fatal("report carries no collector")
	}
	if st := rep.Collector.Stats(); st.Active != 0 {
		t.Fatalf("%d traces still active after the run", st.Active)
	}
	for _, nt := range rep.Collector.Completed() {
		if nt.Outcome == "" {
			t.Fatalf("trace %s has no terminal outcome", nt.TraceID)
		}
		if len(nt.Events) < 2 {
			t.Errorf("trace %s timeline too short: %d events", nt.TraceID, len(nt.Events))
		}
		if nt.Events[0].Kind != trace.KindPublish {
			t.Errorf("trace %s does not start at publish accept: %s", nt.TraceID, nt.Events[0].Kind)
		}
	}
	for _, hop := range []string{"broker", "proxyQueue", "lastHop"} {
		q, ok := rep.HopLatencyMs[hop]
		if !ok || q.N == 0 {
			t.Errorf("per-hop latency missing segment %s: %+v", hop, rep.HopLatencyMs)
			continue
		}
		if q.P50 < 0 || q.P99 < q.P50 {
			t.Errorf("segment %s quantiles inconsistent: %+v", hop, q)
		}
	}
}

// TestRunShardedHost runs on-line load for many sessions sharded across
// four host workers: deliveries must be exactly-once across the fan-out
// (Duplicates == 0) and volume-complete.
func TestRunShardedHost(t *testing.T) {
	rep, err := Run(Config{
		Publishers:    2,
		Devices:       12,
		Topics:        4,
		Notifications: 120,
		PayloadBytes:  64,
		HostWorkers:   4,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 120 notifications over 4 topics = 30 each; 12 devices, 3 per topic:
	// 360 deliveries.
	if rep.Delivered != 360 {
		t.Fatalf("delivered %d, want 360", rep.Delivered)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("%d duplicate deliveries through the host", rep.Duplicates)
	}
	if rep.LatencyP50Ms <= 0 {
		t.Fatalf("latency quantiles not computed: %+v", rep)
	}
	// The host fan-out splits copy-on-write broadcast groups; teardown
	// must release every member and the shared owner notes alike.
	if rep.PoolOutstanding != 0 {
		t.Fatalf("post-drain pool outstanding %d, want 0", rep.PoolOutstanding)
	}
}

// TestRunBoundedHistory runs the host's fan-out with a small
// per-subscription history bound: steady-state eviction must recycle
// delivered notifications back through the burst pool WITHOUT losing or
// duplicating anything — eviction only ever touches notes that already
// made it onto the wire (on-line forwarding encodes into the egress ring
// synchronously at arrival), so delivery conservation is the gate.
func TestRunBoundedHistory(t *testing.T) {
	rep, err := Run(Config{
		Publishers:    2,
		Devices:       8,
		Topics:        2,
		Notifications: 600,
		PayloadBytes:  64,
		HostWorkers:   4,
		HistoryLimit:  8,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 600 notifications over 2 topics = 300 each; 8 devices, 4 per topic:
	// 2400 deliveries.
	if rep.Delivered != 2400 {
		t.Fatalf("delivered %d, want 2400", rep.Delivered)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("%d duplicate deliveries with bounded history", rep.Duplicates)
	}
	if rep.PoolOutstanding != 0 {
		t.Fatalf("post-drain pool outstanding %d, want 0", rep.PoolOutstanding)
	}
	// With eviction recycling mid-run, the pool must serve at least SOME
	// gets from the free list (the exact rate is volume- and GC-dependent;
	// lasthop-benchgate gates the >=0.9 steady-state floor at burst volume).
	if rep.PoolHitRate <= 0 || rep.PoolHitRate > 1 {
		t.Fatalf("pool hit rate %v outside (0, 1]", rep.PoolHitRate)
	}
	if rep.Config.HistoryLimit != 8 {
		t.Fatalf("history limit %d not carried into the report config", rep.Config.HistoryLimit)
	}
}

// TestRunShardedHostOnDemand checks §3.5 READs work through a host
// sharded across two workers as well.
func TestRunShardedHostOnDemand(t *testing.T) {
	rep, err := Run(Config{
		Publishers:    1,
		Devices:       4,
		Topics:        4,
		Notifications: 40,
		OnDemand:      true,
		HostWorkers:   2,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 40 {
		t.Fatalf("delivered %d, want 40", rep.Delivered)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("%d duplicate deliveries", rep.Duplicates)
	}
}
