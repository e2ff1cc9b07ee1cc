package main

import (
	"math"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/host"
	"lasthop/internal/obs"
)

// hostStats reads the host's lifecycle and summed core counters. It takes
// Host.mu, so it only runs once the load has stopped, under await.
func (d *deployment) hostStats() {
	d.life = d.st.h.Lifecycle()
	for i := 0; i < d.r.w.sessions; i++ {
		if st, ok := d.st.h.SessionStats(sessionName(i)); ok {
			d.core.Forwards += st.Forwards
			d.core.Expirations += st.Expirations
			d.core.Rejected += st.Rejected
			d.core.Reads += st.Reads
		}
	}
	h := d.st.hostReg.Histogram("lasthop_host_rehydrate_seconds", "", obs.LatencyBuckets())
	d.rehydrates = h.Count()
	d.rehydrateP50 = h.Quantile(0.5)
}

// hostFigures are the host counters a deployment read before teardown.
type hostFigures struct {
	life         host.LifecycleStats
	core         core.Stats
	rehydrates   uint64
	rehydrateP50 float64 // seconds
}

func (r *phaseResult) stealPct() float64 {
	return 100 * float64(r.after.steal-r.before.steal) / float64(max(1, r.after.jiffies-r.before.jiffies))
}

func (r *phaseResult) cpuPerDelivery() float64 {
	n := r.after.deliveries - r.before.deliveries
	if n == 0 {
		return math.NaN()
	}
	return float64(r.after.cpu-r.before.cpu) / float64(time.Microsecond) / float64(n)
}

// rate is the receipts/s of the phase's own notifications over its length.
func (r *phaseResult) rate() float64 { return float64(r.deliveries) / r.p.dur.Seconds() }

// quantiles are the headline latency's p50, p90 and p99 over what
// arrived, for the provenance (0 where refused).
func (r *phaseResult) quantiles(w workload) []float64 {
	samples := r.deliver
	if w.onDemand {
		r.p.mu.Lock()
		samples = append([]float64(nil), r.p.ss.read...)
		r.p.mu.Unlock()
	}
	var out []float64
	for _, q := range []float64{0.5, 0.9, 0.99} {
		p, _ := percentile(samples, q)
		out = append(out, p.Value)
	}
	return out
}

// tails books the workload-specific end-to-end figures of the untraced
// fixed-rate phase.
func (rep *report) tails(w workload, fx *phaseResult, d *deployment) {
	rep.layerLatency("deliver_p50_ms", fx.deliver, 0.50, 1)
	rep.layerLatency("deliver_p99_ms", fx.deliver, 0.99, 1)
	rep.Values["env.steal_pct"] = fx.stealPct()
	fx.p.mu.Lock()
	rep.layerLatency("gen.lag_p99_ms", append([]float64(nil), fx.p.ss.lag...), 0.99, 1)
	fx.p.mu.Unlock()
	rep.layerLatency("fanout_done_p99_ms", fx.fanout, 0.99, 1)
	fx.p.mu.Lock()
	reads := append([]float64(nil), fx.p.ss.read...)
	fx.p.mu.Unlock()
	read, visit := reads, []float64(nil)
	if w.intermittent {
		read, visit = nil, reads
	}
	rep.layerLatency("read_p50_ms", read, 0.50, 1)
	rep.layerLatency("read_p99_ms", read, 0.99, 1)
	rep.layerLatency("visit_p50_ms", visit, 0.50, 1)
	rep.layerLatency("visit_p99_ms", visit, 0.99, 1)
	if w.onDemand {
		rep.Values["waste_pct"], _ = d.l.waste()
	} else {
		rep.NA = append(rep.NA, "waste_pct")
	}
}

// layers books the per-layer figures of the traced phase.
func (rep *report) layers(tp *phaseResult, d *deployment) {
	b, a := tp.before, tp.after
	deliveries := float64(a.deliveries - b.deliveries)
	tp.p.mu.Lock()
	ss := tp.p.ss
	tp.p.mu.Unlock()
	rep.layerLatency("wire.publish_call_p50_us", ss.pubCall, 0.50, 1000)
	rep.layerLatency("wire.read_call_p50_ms", ss.readIn, 0.50, 1)
	rep.layerLatency("wire.hello_p50_ms", ss.hello, 0.50, 1)

	flushes := float64(a.flushes - b.flushes)
	rep.ratio("wire.flushes_per_delivery", flushes, deliveries)
	rep.ratio("wire.frames_per_flush", a.frames-b.frames, flushes)
	rep.ratio("wire.bytes_out_per_delivery", float64(a.bytesOut-b.bytesOut), deliveries)
	rep.ratio("go.allocs_per_delivery", float64(a.mallocs-b.mallocs), deliveries)
	rep.ratio("go.bytes_per_delivery", float64(a.allocBytes-b.allocBytes), deliveries)
	rep.Values["go.gc_pause_ms"] = float64(a.pauseNs-b.pauseNs) / 1e6
	pool := a.pool
	pool.Gets -= b.pool.Gets
	pool.Misses -= b.pool.Misses
	rep.Values["burst.pool_hit_rate"] = pool.HitRate()

	// Traces that began before the traced phase (the warm-up's) are skipped.
	d.st.trace.FinishActive(time.Now())
	var broker, queue, lastHop []float64
	for _, t := range d.st.trace.Completed() {
		if t.Start().Before(time.Unix(0, tp.p.startNs.Load())) {
			continue
		}
		bd := t.LatencyBreakdown()
		if bd.Broker >= 0 {
			broker = append(broker, float64(bd.Broker)/1e6)
		}
		if bd.ProxyQueue >= 0 {
			queue = append(queue, float64(bd.ProxyQueue)/1e6)
		}
		if bd.LastHop >= 0 {
			lastHop = append(lastHop, float64(bd.LastHop)/1e6)
		}
	}
	rep.layerLatency("pubsub.hop_p50_ms", broker, 0.50, 1)
	rep.layerLatency("host.queue_p50_ms", queue, 0.50, 1)
	rep.layerLatency("host.queue_p99_ms", queue, 0.99, 1)
	rep.layerLatency("host.last_hop_p50_ms", lastHop, 0.50, 1)
}

// hostLayers books the host, spool and core counters a deployment read
// before teardown (whole deployment: warm-up and traced phase).
func (rep *report) hostLayers(d *deployment) {
	switch {
	case d.rehydrates == 0:
		rep.NA = append(rep.NA, "host.rehydrate_p50_ms")
	case d.rehydrates < 2*minBeyond:
		rep.Refused = append(rep.Refused, "host.rehydrate_p50_ms: too few rehydrations")
	default:
		rep.Values["host.rehydrate_p50_ms"] = d.rehydrateP50 * 1000
	}
	rep.Samples["host.rehydrate_p50_ms"] = pct{Value: d.rehydrateP50 * 1000, N: int(d.rehydrates)}
	rep.Values["host.hibernations"] = float64(d.life.Hibernations)
	rep.Values["host.rehydrations"] = float64(d.life.Rehydrations)
	rep.ratio("spool.deltas_per_publish", float64(d.life.SpooledDeltas), float64(len(d.l.pubs)))
	rep.ratio("spool.bytes_per_delta", float64(d.life.SpoolBytes), float64(d.life.SpooledDeltas))
	rep.ratio("core.forwards_per_read", float64(d.core.Forwards), float64(d.core.Reads))
	rep.Values["core.expirations"] = float64(d.core.Expirations)
	rep.Values["core.rejected"] = float64(d.core.Rejected)
}

// ratio books num/den, or marks the metric not applicable when the
// workload produced no denominator.
func (rep *report) ratio(name string, num, den float64) {
	if den == 0 {
		rep.NA = append(rep.NA, name)
		rep.Values[name] = 0
		return
	}
	rep.Values[name] = num / den
}
