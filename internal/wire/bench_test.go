package wire

import (
	"io"
	"net"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// benchPair returns a frame connection whose peer discards everything it
// receives, isolating the sender's encode+write path.
func benchPair(b *testing.B) *Conn {
	b.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c)
		close(drained)
	}()
	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	conn := NewConn(nc)
	b.Cleanup(func() {
		_ = conn.Close()
		_ = lis.Close()
		select {
		case <-drained:
		case <-time.After(time.Second):
		}
	})
	return conn
}

// BenchmarkWireThroughput measures the push write path: encoding and
// writing one notification-bearing push frame per op to a TCP peer that
// discards them.
func BenchmarkWireThroughput(b *testing.B) {
	conn := benchPair(b)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	n := &msg.Notification{
		ID:        "bench-note",
		Topic:     "bench/topic",
		Publisher: "pub",
		Rank:      4.25,
		Published: time.Unix(1700000000, 0).UTC(),
		Expires:   time.Unix(1700086400, 0).UTC(),
		Payload:   payload,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(&Frame{Type: TypePush, Notification: n}); err != nil {
			b.Fatal(err)
		}
	}
}
