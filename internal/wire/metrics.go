package wire

import (
	"lasthop/internal/obs"
)

// Metrics is the wire layer's shared instrumentation set. One instance is
// created per process (NewMetrics is idempotent per registry) and handed
// to every connection via the options structs; all connections aggregate
// into the same families. A nil *Metrics disables instrumentation — every
// hook guards on it, so the uninstrumented hot path costs one branch.
type Metrics struct {
	// FramesIn/FramesOut and BytesIn/BytesOut count protocol frames and
	// their encoded bytes in each direction.
	FramesIn, FramesOut *obs.Counter
	BytesIn, BytesOut   *obs.Counter
	// FlushFrames is the number of frames coalesced into one flush
	// syscall (group-commit width); FlushCoalesce is the time a frame
	// burst waited in the write buffer before hitting the wire.
	FlushFrames   *obs.Histogram
	FlushCoalesce *obs.Histogram
	// BatchSize is the notification count per push-batch frame.
	BatchSize *obs.Histogram
	// ReadBurst is the number of frames decoded out of one read syscall:
	// the ingest-side batching width.
	ReadBurst *obs.Histogram
	// HeartbeatRTT is the round-trip time of client liveness pings.
	HeartbeatRTT *obs.Histogram
	// Reconnects counts automatic session re-establishments.
	Reconnects *obs.Counter
	// ResumeReconciliations counts §3.5 per-topic resume exchanges
	// processed by a proxy after a device reconnect.
	ResumeReconciliations *obs.Counter
}

// NewMetrics registers (or re-fetches) the wire metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		FramesIn:  reg.Counter("lasthop_wire_frames_in_total", "Protocol frames received."),
		FramesOut: reg.Counter("lasthop_wire_frames_out_total", "Protocol frames sent."),
		BytesIn:   reg.Counter("lasthop_wire_bytes_in_total", "Encoded frame bytes received."),
		BytesOut:  reg.Counter("lasthop_wire_bytes_out_total", "Encoded frame bytes sent."),
		FlushFrames: reg.Histogram("lasthop_wire_flush_frames",
			"Frames coalesced into one flush syscall.", obs.SizeBuckets()),
		FlushCoalesce: reg.Histogram("lasthop_wire_flush_coalesce_seconds",
			"Time frames waited in the write buffer before flushing.", obs.ExpBuckets(10e-6, 2, 20)),
		BatchSize: reg.Histogram("lasthop_wire_batch_size",
			"Notifications per push-batch frame.", obs.SizeBuckets()),
		ReadBurst: reg.Histogram("lasthop_wire_read_burst_frames",
			"Frames decoded out of one read syscall.", obs.SizeBuckets()),
		HeartbeatRTT: reg.Histogram("lasthop_wire_heartbeat_rtt_seconds",
			"Round-trip time of liveness pings.", obs.LatencyBuckets()),
		Reconnects: reg.Counter("lasthop_wire_reconnects_total",
			"Automatic session re-establishments after connection loss."),
		ResumeReconciliations: reg.Counter("lasthop_wire_resume_reconciliations_total",
			"Per-topic session-resume reconciliations processed."),
	}
}
