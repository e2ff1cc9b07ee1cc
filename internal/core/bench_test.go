package core

import (
	"fmt"
	"runtime"
	"testing"

	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// discardForwarder accepts every push, like a host session whose device
// keeps up. It takes batches, as the host's forwarder does, so the proxy
// forwards through tryForwardingBatch.
type discardForwarder struct{}

func (discardForwarder) Forward(*msg.Notification) error        { return nil }
func (discardForwarder) ForwardBatch([]*msg.Notification) error { return nil }

// liveHeap returns the live heap after two collections, so memory freed
// by the first one's finalizers and sweeps is gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkProxyRetention measures what a host pays per remembered event:
// 64 proxies, one on-line topic each at a history bound of 256, are
// filled with four times the bound in unique IDs, so every history is
// full and churning. It reports B/event, the proxies' heap growth over
// their empty state divided by the 64 × 256 remembered events, and the
// allocs/op of a steady-state Notify. The notifications are built before
// either measurement: their content is the publisher's, not the proxy's.
// An evicted notification is released, so publishing it again under the
// same ID is a new arrival.
func BenchmarkProxyRetention(b *testing.B) {
	const proxies, limit = 64, 256
	notes := make([][]*msg.Notification, proxies)
	for i := range notes {
		notes[i] = make([]*msg.Notification, 4*limit)
		for j := range notes[i] {
			notes[i][j] = &msg.Notification{ID: msg.ID(fmt.Sprintf("p%02d-e%04d", i, j)), Topic: "t", Rank: float64(j % 10)}
		}
	}
	ps := make([]*Proxy, proxies)
	for i := range ps {
		ps[i] = New(simtime.NewVirtual(t0), discardForwarder{})
		cfg := OnlineConfig("t")
		cfg.HistoryLimit = limit
		if err := ps[i].AddTopic(cfg); err != nil {
			b.Fatal(err)
		}
	}
	empty := liveHeap()
	for j := 0; j < 4*limit; j++ {
		for i, p := range ps {
			p.Notify(notes[i][j])
		}
	}
	perEvent := float64(liveHeap()-empty) / (proxies * limit)

	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i, j := k%proxies, (k/proxies)%(4*limit)
		ps[i].Notify(notes[i][j])
	}
	b.StopTimer()
	b.ReportMetric(perEvent, "B/event") // after ResetTimer, which drops reported metrics
}
