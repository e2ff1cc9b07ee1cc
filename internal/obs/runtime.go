package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// runtimeRegistered dedups RegisterRuntimeMetrics per registry: Serve
// calls it for every daemon, and a process serving several registries
// (loadgen harnesses) must not double-pump the GC-pause histogram.
var runtimeRegistered sync.Map // *Registry → struct{}

// RegisterRuntimeMetrics exports Go runtime telemetry from the registry:
//
//	lasthop_go_goroutines            current goroutine count
//	lasthop_go_heap_alloc_bytes      live heap bytes (MemStats.HeapAlloc)
//	lasthop_go_heap_sys_bytes        heap reserved from the OS
//	lasthop_process_resident_bytes   RSS from /proc/self/statm (0 where absent)
//	lasthop_go_gc_pause_seconds      histogram of GC stop-the-world pauses
//
// Values refresh on every scrape via an OnScrape hook — no background
// goroutine, no cost between scrapes. The pause histogram is pumped by
// diffing MemStats.NumGC against the previous scrape and draining the
// PauseNs ring for the cycles in between (a ring overrun under extreme
// GC churn drops the oldest pauses, never double-counts). Idempotent
// per registry; safe to call from every daemon setup path.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	if _, loaded := runtimeRegistered.LoadOrStore(reg, struct{}{}); loaded {
		return
	}
	goroutines := reg.Gauge("lasthop_go_goroutines", "Current number of goroutines.")
	heapAlloc := reg.Gauge("lasthop_go_heap_alloc_bytes", "Bytes of live heap objects (MemStats.HeapAlloc).")
	heapSys := reg.Gauge("lasthop_go_heap_sys_bytes", "Heap bytes reserved from the OS (MemStats.HeapSys).")
	rss := reg.Gauge("lasthop_process_resident_bytes", "Resident set size from /proc/self/statm; 0 where unavailable.")
	gcPause := reg.Histogram("lasthop_go_gc_pause_seconds",
		"Go garbage-collection stop-the-world pause durations.",
		ExpBuckets(1e-6, 4, 10))

	// Concurrent scrapes each run the hook; mu keeps the GC-pause diff
	// against prevNumGC from double-counting or racing.
	var (
		mu        sync.Mutex
		prevNumGC uint32
	)
	pageSize := int64(os.Getpagesize())
	reg.OnScrape(func() {
		mu.Lock()
		defer mu.Unlock()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapSys.Set(float64(ms.HeapSys))
		from := prevNumGC
		if ms.NumGC > from+uint32(len(ms.PauseNs)) {
			from = ms.NumGC - uint32(len(ms.PauseNs))
		}
		for i := from; i < ms.NumGC; i++ {
			gcPause.Observe(float64(ms.PauseNs[(i+255)%256]) / 1e9)
		}
		prevNumGC = ms.NumGC
		rss.Set(float64(residentBytes(pageSize)))
	})
}

// residentBytes reads RSS pages from /proc/self/statm (second field),
// returning 0 on platforms or sandboxes without it.
func residentBytes(pageSize int64) int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * pageSize
}
