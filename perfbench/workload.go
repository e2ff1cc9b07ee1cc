package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix. Every rate is an open-loop Poisson rate
// per second at the fixed operating point; ladder rungs scale all of a
// workload's streams together. BENCHMARK.json records why each measured
// workload was chosen.
//
// The fixed rates sit near half the knee, the offered rate past which p99
// delivery latency climbs steeply on two processors: for online-narrow
// between 15k and 20k publishes/s (p99 44 ms at 15k/s, 234 ms at 20k/s).
type workload struct {
	name string

	sessions int
	topics   int // sessions are spread evenly, so fan-out = sessions/topics
	onDemand bool
	payload  int

	publishRate float64 // notifications/s
	readRate    float64 // READs/s (resident on-demand sessions)
	visitRate   float64 // hello+READ+close visits/s (intermittent)
	readMax     int     // notifications a READ may return (the user's volume limit)

	// intermittent sessions are disconnected between visits and the host
	// runs with its spool on, so idle sessions hibernate.
	intermittent   bool
	hibernateAfter time.Duration

	// ladder holds the offered-load multipliers of the traced run's
	// ladder; its top rung offers more than two processors carry, so the
	// highest rate carried is the host's throughput.
	ladder []float64
}

func (w workload) fanout() int { return w.sessions / w.topics }

// historyLimit bounds each subscription's retained proxy history. The core
// default retains a whole run's notifications per session; a bound a few
// times the in-flight depth is the steady state the notification pool is
// built for, and keeps a run's memory flat.
const historyLimit = 256

var workloads = []workload{
	{
		name:     "online-narrow",
		sessions: 64, topics: 8, payload: 128,
		publishRate: 8000,
		ladder:      []float64{1.5, 2, 2.5},
	},
	{
		name:     "online-broadcast",
		sessions: 256, topics: 2, payload: 128,
		publishRate: 400,
		ladder:      []float64{1.5, 2.25, 4},
	},
	{
		name:     "ondemand-reads",
		sessions: 512, topics: 64, payload: 128, onDemand: true,
		publishRate: 2000, readRate: 200, readMax: 10,
		ladder: []float64{2, 3.5, 5},
	},
	// The paper's mostly-offline devices: the only workload that drives
	// spool append, group commit, hibernate and rehydrate. With the spool
	// on, host.attach holds Host.mu while newSession enters the worker
	// wheel, and the group-commit tick calls Host.isClosed from inside the
	// wheel, so registration wedges and the run reports it as failed.
	// BENCHMARK.json does not list it until that lock order is fixed,
	// because a benchmark workload must run without failures; run it by
	// name to see the wedge and the watchdog bundle that names it.
	{
		name:     "intermittent",
		sessions: 1024, topics: 64, payload: 128, onDemand: true,
		publishRate: 500, visitRate: 200, readMax: 10,
		intermittent: true, hibernateAfter: 200 * time.Millisecond,
		ladder: []float64{1.5, 2.0},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
