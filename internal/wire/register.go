package wire

import "lasthop/internal/obs"

// RegisterMetrics exports the device client's local state on reg: delivery
// and rank-revision counters plus per-topic local queue and read-set
// sizes. The device label distinguishes multiple clients sharing one
// registry. Call once per (registry, device) pair.
func (d *DeviceClient) RegisterMetrics(reg *obs.Registry, device string) {
	counter := func(name, help string, get func() int) {
		reg.SampleCounters(name, help, []string{"device"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{device}, Value: float64(get())}}
		})
	}
	counter("lasthop_device_received_total", "First-time notification deliveries.", func() int {
		r, _, _ := d.Stats()
		return r
	})
	counter("lasthop_device_rank_updates_total", "Rank revisions applied to already-held notifications.", func() int {
		_, u, _ := d.Stats()
		return u
	})
	counter("lasthop_device_rank_drops_total", "Local copies discarded by below-threshold rank revisions.", func() int {
		_, _, dr := d.Stats()
		return dr
	})
	counter("lasthop_device_reconnects_total", "Automatic session resumptions.", d.Reconnects)

	reg.SampleGauges("lasthop_device_queue_depth",
		"Local ranked-queue depth per topic.",
		[]string{"device", "topic"}, func() []obs.Sample {
			var out []obs.Sample
			for _, t := range d.Topics() {
				out = append(out, obs.Sample{Labels: []string{device, t}, Value: float64(d.QueueLen(t))})
			}
			return out
		})
	reg.SampleGauges("lasthop_device_read_ids",
		"Consumed-notification ID set size per topic.",
		[]string{"device", "topic"}, func() []obs.Sample {
			var out []obs.Sample
			for _, t := range d.Topics() {
				out = append(out, obs.Sample{Labels: []string{device, t}, Value: float64(len(d.ReadSet(t)))})
			}
			return out
		})
}
