package host

import (
	"strconv"

	"lasthop/internal/core"
	"lasthop/internal/metrics"
	"lasthop/internal/obs"
)

// RegisterMetrics exports the host's sharding and multiplexing state on
// reg: per-worker session and timer-wheel gauges, the multiplexed
// subscription table, and per-session core counters. The host label
// distinguishes multiple hosts sharing one registry. Call once per
// (registry, host) pair.
func (h *Host) RegisterMetrics(reg *obs.Registry, host string) {
	reg.SampleGauges("lasthop_host_sessions",
		"Device sessions the host currently retains (connected or spooling).",
		[]string{"host"}, func() []obs.Sample {
			h.mu.Lock()
			n := len(h.sessions)
			h.mu.Unlock()
			return []obs.Sample{{Labels: []string{host}, Value: float64(n)}}
		})

	reg.SampleGauges("lasthop_host_worker_sessions",
		"Sessions sharded onto each event-loop worker.",
		[]string{"host", "worker"}, func() []obs.Sample {
			perWorker := make([]int, len(h.workers))
			h.mu.Lock()
			for _, s := range h.sessions {
				perWorker[s.w.id]++
			}
			h.mu.Unlock()
			out := make([]obs.Sample, len(perWorker))
			for i, n := range perWorker {
				out[i] = obs.Sample{Labels: []string{host, strconv.Itoa(i)}, Value: float64(n)}
			}
			return out
		})

	reg.SampleGauges("lasthop_host_worker_timers",
		"Armed timing-wheel timers per worker (delays, expirations, quiet windows across its sessions).",
		[]string{"host", "worker"}, func() []obs.Sample {
			out := make([]obs.Sample, len(h.workers))
			for i, w := range h.workers {
				out[i] = obs.Sample{Labels: []string{host, strconv.Itoa(i)}, Value: float64(w.wheel.Pending())}
			}
			return out
		})

	reg.SampleGauges("lasthop_host_upstream_subscriptions",
		"Distinct topics the host holds one multiplexed broker subscription each for.",
		[]string{"host"}, func() []obs.Sample {
			h.mu.Lock()
			n := len(h.topics)
			h.mu.Unlock()
			return []obs.Sample{{Labels: []string{host}, Value: float64(n)}}
		})

	reg.SampleGauges("lasthop_host_topic_refs",
		"Sessions sharing each multiplexed upstream subscription.",
		[]string{"host", "topic"}, func() []obs.Sample {
			h.mu.Lock()
			out := make([]obs.Sample, 0, len(h.topics))
			for t, ts := range h.topics {
				out = append(out, obs.Sample{Labels: []string{host, t}, Value: float64(ts.refs)})
			}
			h.mu.Unlock()
			return out
		})

	reg.SampleGauges("lasthop_host_session_connected",
		"Whether each device session currently has a live connection.",
		[]string{"host", "device"}, func() []obs.Sample {
			infos := h.Sessions()
			out := make([]obs.Sample, 0, len(infos))
			for _, s := range infos {
				v := 0.0
				if s.Connected {
					v = 1.0
				}
				out = append(out, obs.Sample{Labels: []string{host, s.Name}, Value: v})
			}
			return out
		})

	h.registerCoreMetrics(reg, host)

	// Hibernation lifecycle: the resident/hibernated split, the spool
	// footprint, and the transition totals.
	reg.SampleGauges("lasthop_host_sessions_by_state",
		"Sessions fully in memory (resident) versus serialized to the spool (hibernated).",
		[]string{"host", "state"}, func() []obs.Sample {
			ls := h.Lifecycle()
			return []obs.Sample{
				{Labels: []string{host, "resident"}, Value: float64(ls.Resident)},
				{Labels: []string{host, "hibernated"}, Value: float64(ls.Hibernated)},
			}
		})
	reg.SampleGauges("lasthop_host_spool_bytes",
		"On-disk size of each worker's write-ahead spool.",
		[]string{"host", "worker"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(h.workers))
			for i, w := range h.workers {
				if w.spool == nil {
					continue
				}
				out = append(out, obs.Sample{
					Labels: []string{host, strconv.Itoa(i)},
					Value:  float64(w.spool.Stats().Bytes),
				})
			}
			return out
		})
	reg.SampleGauges("lasthop_host_spool_segments",
		"Segment files in each worker's write-ahead spool.",
		[]string{"host", "worker"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(h.workers))
			for i, w := range h.workers {
				if w.spool == nil {
					continue
				}
				out = append(out, obs.Sample{
					Labels: []string{host, strconv.Itoa(i)},
					Value:  float64(w.spool.Stats().Segments),
				})
			}
			return out
		})
	reg.SampleCounters("lasthop_host_hibernations_total",
		"Sessions whose state was dropped to the spool after the idle threshold.",
		[]string{"host"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{host}, Value: float64(h.hibernations.Load())}}
		})
	reg.SampleCounters("lasthop_host_rehydrations_total",
		"Hibernated sessions rebuilt from the spool (hello or crash recovery).",
		[]string{"host"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{host}, Value: float64(h.rehydrations.Load())}}
		})
	reg.SampleCounters("lasthop_host_rehydrate_failures_total",
		"Rehydrations that hit an unreadable snapshot or delta (session restarted empty or lost a delta).",
		[]string{"host"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{host}, Value: float64(h.rehydrateFailures.Load())}}
		})
	h.rehydrateHist.Store(reg.Histogram("lasthop_host_rehydrate_seconds",
		"Latency of rebuilding one session from its spool chain on hello.",
		obs.LatencyBuckets()))
}

// registerCoreMetrics exports each resident session's core-algorithm
// state as scrape-time samplers labelled by session: the Stats counters,
// the live §3.1 waste percentage, and per-topic queue depths and tuner
// outputs. Nothing is counted per delivery; every sample is read from the
// proxies at scrape time, one wheel round trip per worker per family.
// Hibernated sessions are skipped — sampling must not rehydrate.
func (h *Host) registerCoreMetrics(reg *obs.Registry, host string) {
	counter := func(name, help string, get func(core.Stats) int) {
		reg.SampleCounters(name, help, []string{"host", "device"}, func() []obs.Sample {
			var out []obs.Sample
			h.eachResident(func(name string, p *core.Proxy) {
				out = append(out, obs.Sample{Labels: []string{host, name}, Value: float64(get(p.Stats()))})
			})
			return out
		})
	}
	counter("lasthop_core_notifications_total", "Notification arrivals from the routing substrate.",
		func(st core.Stats) int { return st.Notifications })
	counter("lasthop_core_forwards_total", "Messages pushed to the device, including rank-drop signals.",
		func(st core.Stats) int { return st.Forwards })
	counter("lasthop_core_rank_drop_signals_total", "Forwards that only signal a rank drop of an already-forwarded notification.",
		func(st core.Stats) int { return st.RankDropSignals })
	counter("lasthop_core_expirations_total", "Notifications expired while queued on the proxy.",
		func(st core.Stats) int { return st.Expirations })
	counter("lasthop_core_reads_total", "Read requests from the device.",
		func(st core.Stats) int { return st.Reads })
	counter("lasthop_core_read_consumed_total", "Notifications consumed by user reads (the read side of the waste metric).",
		func(st core.Stats) int { return st.ReadConsumed })
	counter("lasthop_core_rejected_total", "Arrivals dropped at the edge: below threshold or expired.",
		func(st core.Stats) int { return st.Rejected })
	counter("lasthop_core_resumes_total", "Session-resumption reconciliations after device reconnects.",
		func(st core.Stats) int { return st.Resumes })
	counter("lasthop_core_resume_requeued_total", "Forwarded notifications lost in flight and re-queued on resume.",
		func(st core.Stats) int { return st.ResumeRequeued })
	counter("lasthop_core_resume_lost_total", "Forwarded notifications lost in flight and irrecoverable on resume.",
		func(st core.Stats) int { return st.ResumeLost })

	reg.SampleGauges("lasthop_core_waste_pct",
		"Live §3.1 waste: percentage of forwarded notifications never read. Negative means the read/forward conservation identity is violated.",
		[]string{"host", "device"}, func() []obs.Sample {
			var out []obs.Sample
			h.eachResident(func(name string, p *core.Proxy) {
				st := p.Stats()
				// A violated identity surfaces as a negative value here;
				// the violations counter (metrics.Register) counts the
				// events.
				pct, _ := metrics.WastePctChecked(st.Forwards-st.RankDropSignals, st.ReadConsumed)
				out = append(out, obs.Sample{Labels: []string{host, name}, Value: pct})
			})
			return out
		})

	reg.SampleGauges("lasthop_core_topic_queue_depth",
		"Per-topic Figure 7 stage depths.",
		[]string{"host", "device", "topic", "queue"}, func() []obs.Sample {
			var out []obs.Sample
			h.eachTopic(func(name string, s core.TopicSnapshot) {
				out = append(out,
					obs.Sample{Labels: []string{host, name, s.Name, "outgoing"}, Value: float64(s.Outgoing)},
					obs.Sample{Labels: []string{host, name, s.Name, "prefetch"}, Value: float64(s.Prefetch)},
					obs.Sample{Labels: []string{host, name, s.Name, "holding"}, Value: float64(s.Holding)},
					obs.Sample{Labels: []string{host, name, s.Name, "delayed"}, Value: float64(s.Delayed)},
				)
			})
			return out
		})

	topicGauge := func(name, help string, get func(core.TopicSnapshot) float64) {
		reg.SampleGauges(name, help, []string{"host", "device", "topic"}, func() []obs.Sample {
			var out []obs.Sample
			h.eachTopic(func(dev string, s core.TopicSnapshot) {
				out = append(out, obs.Sample{Labels: []string{host, dev, s.Name}, Value: get(s)})
			})
			return out
		})
	}
	topicGauge("lasthop_core_topic_client_queue_view", "Proxy's view of the device queue size (§3.2).",
		func(s core.TopicSnapshot) float64 { return float64(s.QueueSizeView) })
	topicGauge("lasthop_core_topic_prefetch_limit", "Effective (possibly auto-tuned) prefetch limit.",
		func(s core.TopicSnapshot) float64 { return float64(s.PrefetchLimit) })
	topicGauge("lasthop_core_topic_expiration_threshold_seconds", "Effective (possibly auto-tuned) expiration threshold.",
		func(s core.TopicSnapshot) float64 { return s.ExpirationThreshold.Seconds() })
	topicGauge("lasthop_core_topic_delay_seconds", "Effective (possibly auto-tuned) rank-retraction delay.",
		func(s core.TopicSnapshot) float64 { return s.Delay.Seconds() })
	topicGauge("lasthop_core_topic_forwarded_ids", "IDs the proxy believes delivered to the device.",
		func(s core.TopicSnapshot) float64 { return float64(s.Forwarded) })
	topicGauge("lasthop_core_topic_history_size", "Per-topic event history size.",
		func(s core.TopicSnapshot) float64 { return float64(s.History) })
}

// eachResident calls fn with every resident session's proxy, inside that
// session's worker wheel, entering each worker's wheel once.
func (h *Host) eachResident(fn func(name string, p *core.Proxy)) {
	byWorker := make([][]*Session, len(h.workers))
	h.mu.Lock()
	for _, s := range h.sessions {
		byWorker[s.w.id] = append(byWorker[s.w.id], s)
	}
	h.mu.Unlock()
	for i, sessions := range byWorker {
		if len(sessions) == 0 {
			continue
		}
		h.workers[i].wheel.Run(func() {
			for _, s := range sessions {
				if s.proxy != nil {
					fn(s.name, s.proxy)
				}
			}
		})
	}
}

// eachTopic calls fn with every topic snapshot of every resident session.
func (h *Host) eachTopic(fn func(name string, s core.TopicSnapshot)) {
	h.eachResident(func(name string, p *core.Proxy) {
		for _, t := range p.Topics() {
			if snap, ok := p.Snapshot(t); ok {
				fn(name, snap)
			}
		}
	})
}
