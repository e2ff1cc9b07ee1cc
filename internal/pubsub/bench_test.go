package pubsub

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// benchEncodeFrame models the wire layer's per-connection push-frame
// encode (appendFrame: a JSON object with a base64 payload) without
// importing internal/wire, which would be an import cycle. Both fan-out
// variants below call exactly this function, so the benchmark compares
// encode-once against encode-per-target at identical per-encode cost.
func benchEncodeFrame(dst []byte, n *msg.Notification, payload []byte) []byte {
	dst = append(dst, `{"type":"push","notification":{"id":`...)
	dst = strconv.AppendQuote(dst, string(n.ID))
	dst = append(dst, `,"topic":`...)
	dst = strconv.AppendQuote(dst, n.Topic)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendFloat(dst, n.Rank, 'g', -1, 64)
	dst = append(dst, `,"payload":"`...)
	dst = base64.StdEncoding.AppendEncode(dst, payload)
	return append(dst, '"', '}', '}', '\n')
}

// countSub is a benchmark subscriber that only counts deliveries.
type countSub struct {
	n atomic.Int64
}

func (s *countSub) Deliver(*msg.Notification)        { s.n.Add(1) }
func (s *countSub) DeliverRankUpdate(msg.RankUpdate) {}

// BenchmarkBrokerFanout measures publish routing throughput: many
// publishers publishing concurrently across many topics, each with a few
// local subscribers. Run with -cpu 8 (or more) to expose lock contention
// on the routing state.
func BenchmarkBrokerFanout(b *testing.B) {
	const (
		topics  = 128
		subsPer = 2
	)
	br := NewBroker("bench")
	sink := &countSub{}
	names := make([]string, topics)
	for t := 0; t < topics; t++ {
		topic := fmt.Sprintf("bench/topic-%03d", t)
		names[t] = topic
		if err := br.Advertise(topic, "pub"); err != nil {
			b.Fatal(err)
		}
		for s := 0; s < subsPer; s++ {
			sub := msg.Subscription{Topic: topic, Subscriber: fmt.Sprintf("sub-%d", s)}
			if err := br.Subscribe(sub, sink); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := time.Unix(1700000000, 0)
	var ctr atomic.Int64
	b.ReportAllocs()
	// Oversubscribe the publishers well beyond GOMAXPROCS: a production
	// broker serves hundreds of connections, each publishing from its own
	// goroutine, and lock convoys only appear once the waiter count is
	// realistic.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Publish is synchronous and retains nothing from the caller's
		// struct, so one notification per goroutine can be reused with a
		// fresh ID each iteration — the op cost is the broker's, not the
		// generator's.
		note := msg.Notification{Publisher: "pub", Rank: 3, Published: base}
		idbuf := make([]byte, 0, 32)
		for pb.Next() {
			i := ctr.Add(1)
			idbuf = append(idbuf[:0], 'b', '-')
			idbuf = strconv.AppendInt(idbuf, i, 10)
			note.ID = msg.ID(idbuf)
			note.Topic = names[int(i)%topics]
			if err := br.Publish(&note); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if got, want := sink.n.Load(), ctr.Load()*subsPer; got != want {
		b.Fatalf("delivered %d, want %d", got, want)
	}
}

// cloneSub is a benchmark subscriber on the legacy ownership-transfer
// path: every delivery is a pooled clone, and — as the pre-shared-frame
// wire layer did per connection — each delivery encodes its own push
// frame into its own pooled buffer before releasing both.
type cloneSub struct {
	n       atomic.Int64
	payload []byte
}

func (s *cloneSub) Deliver(n *msg.Notification) {
	s.n.Add(1)
	buf := burst.Bufs.Get()
	buf.B = benchEncodeFrame(buf.B[:0], n, s.payload)
	burst.Bufs.Put(buf)
	burst.Notes.Put(n)
}
func (s *cloneSub) DeliverRankUpdate(msg.RankUpdate) {}

// sharedSub is a benchmark subscriber on the encode-once path: it takes
// one reference to the fan-out's shared frame (encoding it if it is the
// first of its class) and releases it, like a connection enqueue would.
type sharedSub struct {
	n       atomic.Int64
	payload []byte
}

func (s *sharedSub) Deliver(n *msg.Notification) {
	s.n.Add(1)
	burst.Notes.Put(n)
}
func (s *sharedSub) DeliverRankUpdate(msg.RankUpdate) {}
func (s *sharedSub) DeliverShared(n *msg.Notification, enc *SharedEncoding) {
	s.n.Add(1)
	b, err := enc.Buf(EncodePlain, func(dst []byte) ([]byte, error) {
		return benchEncodeFrame(dst, n, s.payload), nil
	})
	if err != nil {
		return
	}
	burst.Bufs.Put(b)
}

// BenchmarkBrokerFanoutWidth measures one-to-many routing cost as a
// function of fan-out width: all subscribers share one topic, so every
// publish is one fan-out of the given width. "shared" is the encode-once
// path (SharedDeliverer: one frame per class, per-holder refs);
// "pertarget" is the legacy path — one pooled clone per subscriber, each
// encoding its own frame into its own buffer, which is what every
// downstream connection did before frames were shared. The ns/delivery
// metric divides the op cost by the width; cmd/lasthop-benchgate gates
// the width-1024 pertarget/shared ratio.
func BenchmarkBrokerFanoutWidth(b *testing.B) {
	payload := make([]byte, 256)
	for _, width := range []int{8, 256, 1024} {
		for _, variant := range []string{"shared", "pertarget"} {
			b.Run(fmt.Sprintf("%s/width-%d", variant, width), func(b *testing.B) {
				br := NewBroker("bench")
				if err := br.Advertise("bench/wide", "pub"); err != nil {
					b.Fatal(err)
				}
				var delivered func() int64
				switch variant {
				case "shared":
					sink := &sharedSub{payload: payload}
					delivered = sink.n.Load
					for s := 0; s < width; s++ {
						sub := msg.Subscription{Topic: "bench/wide", Subscriber: fmt.Sprintf("sub-%d", s)}
						if err := br.Subscribe(sub, sink); err != nil {
							b.Fatal(err)
						}
					}
				case "pertarget":
					sink := &cloneSub{payload: payload}
					delivered = sink.n.Load
					for s := 0; s < width; s++ {
						sub := msg.Subscription{Topic: "bench/wide", Subscriber: fmt.Sprintf("sub-%d", s)}
						if err := br.Subscribe(sub, sink); err != nil {
							b.Fatal(err)
						}
					}
				}
				base := time.Unix(1700000000, 0)
				note := msg.Notification{Publisher: "pub", Topic: "bench/wide", Rank: 3, Published: base, Payload: payload}
				idbuf := make([]byte, 0, 32)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idbuf = append(idbuf[:0], 'w', '-')
					idbuf = strconv.AppendInt(idbuf, int64(i), 10)
					note.ID = msg.ID(idbuf)
					if err := br.Publish(&note); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if got, want := delivered(), int64(b.N)*int64(width); got != want {
					b.Fatalf("delivered %d, want %d", got, want)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(width)), "ns/delivery")
			})
		}
	}
}
