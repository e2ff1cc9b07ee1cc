package main

import "lasthop/internal/loadgen"

// table is every benchmark row and its gates, in run order. Benchmark
// sizes are fixed iteration counts, not wall-clock -benchtime: the
// fan-out and forward-path benchmarks publish b.N unique notifications,
// so their dedup state grows with b.N and a longer benchtime silently
// measures a bigger steady state. Smoke sizes are the smallest at which
// per-op allocations reach steady state.
func table() []row {
	// The burst profile: 80 sessions at fan-out 8, eight publishers
	// pipelining 64-notification batches.
	burst := loadgen.Config{Devices: 80, Topics: 10, Publishers: 8, PublishBatch: 64, PayloadBytes: 128}
	// Delivered notifications stay checked out of the pool until their
	// history entry is evicted; 64 is a few times the steady-state
	// in-flight depth, so the pool recycles as designed.
	bounded := burst
	bounded.HistoryLimit = 64
	return []row{
		// Every burst/pubsub/wire/host/loadgen TestMain asserts zero net
		// outstanding pool objects.
		{name: "pool-leaks", pkgs: []string{"./internal/burst/", "./internal/pubsub/", "./internal/wire/", "./internal/host/", "./internal/loadgen/"},
			gates: []gate{runSucceeds()}},
		{name: "host-forward-path", pkgs: []string{"./internal/host/"}, bench: "^BenchmarkHostForwardPath$", smoke: 20000, full: 100000,
			gates: []gate{allocBudget("HostForwardPath/sessions=1", 8), allocBudget("HostForwardPath/sessions=8", 10)}},
		// One op is a device reconnect: dial, hello, subscribe, close. The
		// byte budget holds both ends' read buffers at their small initial
		// size; 64 KiB per connection would cost over 128 KiB per op.
		{name: "session-setup", pkgs: []string{"./internal/host/"}, bench: "^BenchmarkHostSessionSetup$", smoke: 2000, full: 20000,
			gates: []gate{allocBudget("HostSessionSetup", 120), bytesBudget("HostSessionSetup", 32*1024)}},
		// The in-process broker benchmark isolates the encode-once delta
		// from TCP scheduling noise, so its ratio is the gated one.
		{name: "broker-fanout-width", pkgs: []string{"./internal/pubsub/"}, bench: "^BenchmarkBrokerFanoutWidth$", smoke: 2000, full: 20000,
			gates: []gate{
				ratio("BrokerFanoutWidth/pertarget/width-1024", "BrokerFanoutWidth/shared/width-1024", 5),
				allocsFlat("BrokerFanoutWidth/shared/width-8", "BrokerFanoutWidth/shared/width-1024", 2),
			}},
		// Ring and flush scheduling swing this ratio several-fold with
		// runner load: reported, not gated.
		{name: "wire-fanout", pkgs: []string{"./internal/wire/"}, bench: "^BenchmarkWireFanout$", smoke: 50, full: 500,
			gates: []gate{ratio("WireFanout/pertarget/width-1024", "WireFanout/shared/width-1024", 0)}},
		{name: "timer-wheel", pkgs: []string{"./internal/simtime/"}, bench: "^BenchmarkTimerWheel$", smoke: 1000, full: 200000,
			gates: []gate{ratio("TimerWheel/AfterFunc", "TimerWheel/Wheel", 0)}},
		// The session count is the point, so smoke runs keep all 1,000.
		{name: "sessions-1000", loadgen: &loadgen.Config{Devices: 1000, Topics: 100, Publishers: 4, PayloadBytes: 128},
			smoke: 2000, full: 20000, gates: []gate{exactDelivery()}},
		{name: "burst", loadgen: &burst, smoke: 8000, full: 40000, attempts: 5,
			gates: []gate{exactDelivery(), minRate(100000)}},
		{name: "burst-bounded-history", loadgen: &bounded, smoke: 12000, full: 40000, attempts: 5,
			gates: []gate{exactDelivery(), poolRecycles(0.90), minRate(100000)}},
		// Its budget carries the end-to-end throughput floor.
		{name: "flash-crowd", scenario: "flash-crowd", fullOnly: true, gates: []gate{verdictPasses()}},
	}
}
