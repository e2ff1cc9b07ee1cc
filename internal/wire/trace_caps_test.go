package wire

// Mixed-capability interop for the trace-context frame field: contexts
// must ride along between CapTrace peers and be dropped cleanly — never
// leak, never break framing — when either side of a hop is legacy.

import (
	"net"
	"testing"

	"lasthop/internal/msg"
	"lasthop/internal/trace"
)

// traceBroker attaches a head-sampling collector (rate 1) to the harness
// broker so every publish mints a context.
func traceBroker(t *testing.T, h *harness) *trace.Collector {
	t.Helper()
	col := trace.NewCollector("test-broker", trace.NewSampler(1), 64)
	h.broker.broker.SetTracer(col)
	return col
}

// TestLegacySubscriberDropsTraceContext: the broker lifts a context into
// the push frame only for subscribers whose hello advertised CapTrace.
// Two subscribers on one topic — one legacy, one capable — receive the
// same notification with and without the context.
func TestLegacySubscriberDropsTraceContext(t *testing.T) {
	h := newHarness(t)
	traceBroker(t, h)

	dial := func(name string, caps []string) *Conn {
		nc, err := net.Dial("tcp", h.brokerAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn := NewConn(nc)
		t.Cleanup(func() { _ = conn.Close() })
		if err := syncExchange(conn, &Frame{Type: TypeHello, Name: name, Caps: caps}, nil); err != nil {
			t.Fatalf("%s hello: %v", name, err)
		}
		sub := &msg.Subscription{Topic: "news", Subscriber: name,
			Options: msg.SubscriptionOptions{Mode: msg.OnLine}}
		if err := syncExchange(conn, &Frame{Type: TypeSubscribe, Subscription: sub}, nil); err != nil {
			t.Fatalf("%s subscribe: %v", name, err)
		}
		return conn
	}
	legacy := dial("legacy-sub", nil)
	capable := dial("capable-sub", LocalCaps())

	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "news", 5)); err != nil {
		t.Fatal(err)
	}

	recvPush := func(conn *Conn, who string) *Frame {
		for {
			f, err := conn.Recv()
			if err != nil {
				t.Fatalf("%s recv: %v", who, err)
			}
			if f.Type == TypePush {
				return f
			}
		}
	}
	lf := recvPush(legacy, "legacy")
	cf := recvPush(capable, "capable")
	if lf.Trace != nil || len(lf.Traces) != 0 {
		t.Errorf("legacy subscriber received a trace context: %+v", lf.Trace)
	}
	if cf.Trace == nil {
		t.Error("capable subscriber received no trace context")
	} else if cf.Trace.TraceID != "n1" {
		t.Errorf("capable subscriber got trace %q, want n1", cf.Trace.TraceID)
	}
}
