// Snapshot types: the plain-data, JSON-serializable form of one topic's
// Figure 7 state, used when a last-hop proxy hibernates to the write-ahead
// spool (internal/spool) and when it is rehydrated or recovered after a
// crash. They live in msg — not core — so the spool tooling can decode
// session records without importing the proxy algorithm.
package msg

import "time"

// WindowSnapshot is the durable form of a stats.MovingAverage: the window
// size and the retained samples, oldest first.
type WindowSnapshot struct {
	Size    int       `json:"size"`
	Samples []float64 `json:"samples,omitempty"`
}

// IntervalSnapshot is the durable form of a stats.IntervalAverage: the
// inter-observation gaps (seconds, oldest first) plus the last observed
// timestamp. HasLast distinguishes "never observed" from the zero time.
type IntervalSnapshot struct {
	Window  WindowSnapshot `json:"window"`
	Last    time.Time      `json:"last,omitempty"`
	HasLast bool           `json:"hasLast,omitempty"`
}

// DelayedEntry is one notification parked in the delay stage (§3.4) or
// behind a quiet window (§2.2): the instant its timer would have fired and
// which of the two release paths it was on. Rehydration re-arms the timer
// for the remaining duration (immediately, when the deadline passed while
// the session was spooled).
type DelayedEntry struct {
	ID     ID        `json:"id"`
	FireAt time.Time `json:"fireAt"`
	Quiet  bool      `json:"quiet,omitempty"`
}

// SpoolDelta is one incremental spool record of a session's chain: a
// notification that arrived (with its trace context, which Notification's
// own JSON form omits), a rank revision, or a topic-membership correction.
// Exactly one field group is set. Rehydration replays deltas in record
// order through the proxy's normal NOTIFICATION handling, which is
// idempotent for re-arrivals (a known ID is treated as a rank revision),
// so duplicated deltas after a crashed compaction are harmless.
//
// Unsubscribe names a topic the session dropped after the chain's
// snapshot: without it, crash recovery would resurrect the topic from the
// snapshot's SpoolMeta.Topics as a phantom upstream subscription. A
// subscribe needs no correction — it always starts a new chain from a
// snapshot that holds the topic.
type SpoolDelta struct {
	Notification *Notification `json:"notification,omitempty"`
	Trace        *TraceContext `json:"trace,omitempty"`
	Rank         *RankUpdate   `json:"rank,omitempty"`
	Unsubscribe  string        `json:"unsubscribe,omitempty"`
}

// SpoolMeta is the metadata blob of a snapshot spool record: enough for
// crash recovery and the inspection tooling to rebuild the host's
// subscription table without decoding the full payload.
type SpoolMeta struct {
	Topics []string `json:"topics,omitempty"`
}

// TopicState is the complete durable state of one subscribed topic on the
// proxy: the three Figure 7 queues (as ID lists into Notifications), the
// delay stage, the seen-set bookkeeping (history, known content,
// forwarded), armed expiry timers, and the tuner state. Everything a
// rehydrated proxy needs to carry on exactly where the hibernated one
// stopped.
type TopicState struct {
	Topic string `json:"topic"`

	// Queue membership, by notification ID. Every listed ID must appear
	// in History/Notifications.
	Outgoing []ID           `json:"outgoing,omitempty"`
	Prefetch []ID           `json:"prefetch,omitempty"`
	Holding  []ID           `json:"holding,omitempty"`
	Delayed  []DelayedEntry `json:"delayed,omitempty"`

	// History is the seen-set in insertion order (oldest first);
	// Notifications carries the content for exactly those IDs. Traces is
	// the sidecar for the per-notification tracing contexts, which the
	// Notification JSON form deliberately omits.
	History       []ID                 `json:"history,omitempty"`
	Notifications []*Notification      `json:"notifications,omitempty"`
	Traces        map[ID]*TraceContext `json:"traces,omitempty"`
	Forwarded     []ID                 `json:"forwarded,omitempty"`
	ExpiryArmed   []ID                 `json:"expiryArmed,omitempty"`

	// Tuner state (Figure 7's per-topic variables).
	QueueSize     int           `json:"queueSize"`
	PrefetchLimit int           `json:"prefetchLimit"`
	ExpThreshold  time.Duration `json:"expThreshold"`
	Delay         time.Duration `json:"delay"`

	ReadSizes    WindowSnapshot   `json:"readSizes"`
	ExpTimes     WindowSnapshot   `json:"expTimes"`
	DropLags     WindowSnapshot   `json:"dropLags"`
	ReadTimes    IntervalSnapshot `json:"readTimes"`
	ArrivalTimes IntervalSnapshot `json:"arrivalTimes"`

	RateTokens float64 `json:"rateTokens,omitempty"`
	OnlineDay  int     `json:"onlineDay,omitempty"`
	OnlineSent int     `json:"onlineSent,omitempty"`
}
