package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// TestAppendFrameMatchesEncodingJSON pins the hand-rolled hot-path encoder
// to encoding/json semantics: whatever appendFrame emits must decode to
// exactly the frame json.Marshal would have produced.
func TestAppendFrameMatchesEncodingJSON(t *testing.T) {
	at := time.Unix(1700000000, 123456789).UTC()
	exp := time.Unix(1800000000, 0).UTC()
	frames := []*Frame{
		{Type: TypePush, Notification: &msg.Notification{
			ID: "n1", Topic: "news", Rank: 3.5, Published: at,
		}},
		{Type: TypePush, Notification: &msg.Notification{
			ID: "n2", Topic: "news/sports", Publisher: "wire-svc", Rank: -2,
			Published: at, Expires: exp, Payload: []byte("hello, \"world\"\n"),
		}},
		// Zero Published/Expires, empty payload.
		{Type: TypePush, Notification: &msg.Notification{ID: "n3", Topic: "t"}},
		// Float shapes that exercise the exponent formatting paths.
		{Type: TypePush, Notification: &msg.Notification{ID: "n4", Topic: "t", Rank: 1e21, Published: at}},
		{Type: TypePush, Notification: &msg.Notification{ID: "n5", Topic: "t", Rank: 1e-7, Published: at}},
		{Type: TypePush, Notification: &msg.Notification{ID: "n6", Topic: "t", Rank: 0.1, Published: at}},
		// Non-ASCII and HTML-escapable strings leave the fast path.
		{Type: TypePush, Notification: &msg.Notification{ID: "nö7", Topic: "t<a>&b", Rank: 1, Published: at}},
		{Type: TypePushBatch, Batch: []*msg.Notification{
			{ID: "a", Topic: "t", Rank: 1, Published: at},
			{ID: "b", Topic: "t", Rank: 2, Published: at, Payload: []byte{0x00, 0xff, 0x10}},
			{ID: "c", Topic: "u", Rank: 3, Published: at, Expires: exp},
		}},
		// Batch containing nil falls back to encoding/json.
		{Type: TypePushBatch, Batch: []*msg.Notification{nil, {ID: "d", Topic: "t", Rank: 1}}},
		{Type: TypeHello, Name: "dev", Caps: []string{CapPushBatch}},
		{Type: TypeErr, Re: 7, Code: "bad", Message: "nope"},
		// Push carrying extra framing fields must not take the bare-push
		// fast path.
		{Type: TypePush, Seq: 9, Notification: &msg.Notification{ID: "n8", Topic: "t", Rank: 1, Published: at}},
		// Push carrying a trace context (CapTrace peer negotiated).
		{Type: TypePush, Notification: &msg.Notification{ID: "n9", Topic: "t", Rank: 1, Published: at},
			Trace: &msg.TraceContext{TraceID: "n9", Origin: "broker-1",
				Hops: []msg.TraceHop{{Node: "broker-1", At: 1700000000123456789}, {Node: "proxy-1", At: 1700000000123999999}}}},
		// Trace context whose strings need escaping, with no hops yet.
		{Type: TypePush, Notification: &msg.Notification{ID: "n10", Topic: "t", Rank: 1, Published: at},
			Trace: &msg.TraceContext{TraceID: `id "quoted" <&>`, Origin: "nö"}},
		// Batch with 1:1 trace contexts, including a nil gap where an
		// unsampled notification sits between sampled ones.
		{Type: TypePushBatch, Batch: []*msg.Notification{
			{ID: "a", Topic: "t", Rank: 1, Published: at},
			{ID: "b", Topic: "t", Rank: 2, Published: at},
			{ID: "c", Topic: "t", Rank: 3, Published: at},
		}, Traces: []*msg.TraceContext{
			{TraceID: "a", Origin: "o", Hops: []msg.TraceHop{{Node: "b1", At: 42}, {Node: "p1", At: 43}}},
			nil,
			{TraceID: "c"},
		}},
	}
	for i, f := range frames {
		enc, err := appendFrame(nil, f)
		if err != nil {
			t.Fatalf("frame %d: appendFrame: %v", i, err)
		}
		if len(enc) == 0 || enc[len(enc)-1] != '\n' {
			t.Fatalf("frame %d: missing newline terminator: %q", i, enc)
		}
		ref, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("frame %d: json.Marshal: %v", i, err)
		}
		var got, want Frame
		if err := json.Unmarshal(enc[:len(enc)-1], &got); err != nil {
			t.Fatalf("frame %d: decode appendFrame output %q: %v", i, enc, err)
		}
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatalf("frame %d: decode reference: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: hand-rolled encoding diverged\n got: %+v\nwant: %+v\n enc: %s\n ref: %s",
				i, got, want, enc, ref)
		}
	}

	// Non-finite ranks must fail on both encoders, not silently emit
	// invalid JSON.
	bad := &Frame{Type: TypePush, Notification: &msg.Notification{ID: "x", Topic: "t", Rank: math.NaN()}}
	if _, err := appendFrame(nil, bad); err == nil {
		t.Error("appendFrame accepted a NaN rank")
	}
	if _, err := json.Marshal(bad); err == nil {
		t.Error("json.Marshal accepted a NaN rank (test premise broken)")
	}
}
