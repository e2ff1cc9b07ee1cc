package host

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lasthop/internal/wire"
)

// TestHelloChurnDoesNotWedge drives the lock-order hazard between hellos
// and the group-commit tick: 1024 sessions hello, subscribe and close on
// two workers while commits tick every millisecond, hibernations fire 200ms
// after each close, and tiny segments keep compaction running. A hello
// building its session under Host.mu while a wheel callback waited for
// Host.mu wedged the host; the run must finish well inside its deadline.
func TestHelloChurnDoesNotWedge(t *testing.T) {
	opts := hibOpts(t.TempDir())
	opts.HibernateAfter = 200 * time.Millisecond
	opts.SpoolCommitEvery = time.Millisecond
	opts.SpoolSegmentBytes = 16 << 10
	opts.SpoolCompactSegments = 2
	tt := newTopology(t, opts)
	const sessions = 1024
	policy := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}

	done := make(chan error, 1)
	go func() {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			first error
		)
		next := make(chan int)
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					dev, err := wire.DialProxy(tt.addr, fmt.Sprintf("churn-%d", i))
					if err == nil {
						err = dev.Subscribe(fmt.Sprintf("churn/t%d", i%8), policy)
						_ = dev.Close()
					}
					if err != nil {
						mu.Lock()
						if first == nil {
							first = fmt.Errorf("session %d: %w", i, err)
						}
						mu.Unlock()
					}
				}
			}()
		}
		for i := 0; i < sessions; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		done <- first
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("hello/subscribe/close churn wedged the host")
	}
	waitFor(t, "every session hibernated", func() bool {
		return tt.host.Lifecycle().Hibernated == sessions
	})
}

// TestReconnectDuringDetachStaysOnline forces the reconnect-while-detaching
// interleaving: the old connection's detach clears the session's
// connection, then parks before telling the proxy; a new hello attaches
// and marks the proxy online inside that gap. When the parked detach
// resumes it must not take the proxy offline under the live connection —
// on-line pushes keep reaching the new device.
func TestReconnectDuringDetachStaysOnline(t *testing.T) {
	tt := newTopology(t, Options{Workers: 1})
	const topic = "gap/t"
	const name = "gap-dev"
	policy := wire.TopicPolicy{Mode: "on-line"}
	dev, err := wire.DialProxy(tt.addr, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe(topic, policy); err != nil {
		t.Fatal(err)
	}

	reconnected := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	hook := func(string) {
		once.Do(func() {
			close(entered)
			<-reconnected
		})
	}
	tt.host.testHookDetachGap.Store(&hook)
	_ = dev.Close()
	<-entered

	dev2 := tt.device(name)
	if err := dev2.Subscribe(topic, policy); err != nil {
		t.Fatal(err)
	}
	close(reconnected)
	waitFor(t, "detach resumed", func() bool {
		info, ok := sessionInfoOf(tt.host, name)
		return ok && info.Connected && info.Connects == 2
	})
	// Give the released detach time to reach the wheel, then queue behind
	// it. Too short a pause could only hide the bug, never fake it.
	time.Sleep(50 * time.Millisecond)
	tt.host.SessionStats(name)

	pub := tt.publisher("gap-pub")
	publishSeq(t, pub, topic, "g", 0, 3)
	waitFor(t, "pushes reach the reconnected device", func() bool {
		return dev2.QueueLen(topic) == 3
	})
}

// TestResidentChainSurvivesKillAndCompaction is the resident write-ahead
// round trip: a connected on-demand session queues arrivals it has not
// forwarded, tiny segments force compactions that re-base its chain on
// fresh snapshots, and a kill loses the process. The restarted host must
// serve every queued notification.
func TestResidentChainSurvivesKillAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := hibOpts(dir)
	opts.Workers = 1
	opts.HibernateAfter = time.Hour
	opts.SpoolSegmentBytes = 4 << 10
	opts.SpoolCompactSegments = 2
	tt := newTopology(t, opts)
	const topic = "wal/t"
	policy := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}
	dev := tt.device("wal-dev")
	if err := dev.Subscribe(topic, policy); err != nil {
		t.Fatal(err)
	}
	const n = 200
	pub := tt.publisher("wal-pub")
	publishSeq(t, pub, topic, "w", 0, n)
	waitFor(t, "every arrival written ahead", func() bool {
		return tt.host.Lifecycle().SpooledDeltas >= n
	})
	waitFor(t, "a compaction re-based the resident chain", func() bool {
		return tt.host.Lifecycle().SpoolSegments <= int64(opts.SpoolCompactSegments)
	})
	if info, _ := sessionInfoOf(tt.host, "wal-dev"); info.State != "resident" {
		t.Fatalf("session state = %s, want resident", info.State)
	}

	tt.host.Kill()
	opts.BrokerAddr = tt.brokerAddr
	opts.Name = "test-host"
	h2, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(h2.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h2.Serve(lis) }()

	dev2, err := wire.DialProxy(lis.Addr().String(), "wal-dev")
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	if err := dev2.Subscribe(topic, policy); err != nil {
		t.Fatal(err)
	}
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("w-%d", i)
	}
	readAll(t, dev2, topic, want)
}
