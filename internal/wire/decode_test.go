package wire

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// TestDecodeFrameFastPath pins the frames the hand-rolled decoder must
// handle itself: the shapes the hand-rolled encoders emit for pushes,
// publishes, and responses, and the session-establishment frames every
// reconnect repeats. If one of these starts falling back to
// encoding/json, the forward-path or session set-up allocation budget
// regresses.
func TestDecodeFrameFastPath(t *testing.T) {
	n := &msg.Notification{
		ID:        "n-1",
		Topic:     "alerts/eu",
		Publisher: "press",
		Rank:      4.25,
		Published: time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC),
		Expires:   time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC),
		Payload:   []byte("breaking"),
	}
	tc := &msg.TraceContext{
		TraceID: "t-1",
		Origin:  "b1",
		Hops:    []msg.TraceHop{{Node: "b1", At: 1700000000000000000}},
	}
	frames := []*Frame{
		{Type: TypePush, Notification: n},
		{Type: TypePush, Notification: n, Trace: tc},
		{Type: TypePushBatch, Batch: []*msg.Notification{n, n}, Traces: []*msg.TraceContext{tc, nil}},
		{Type: TypePublish, Seq: 7, Notification: n},
		{Type: TypeRead, Seq: 9, Read: &msg.ReadRequest{
			Topic: "alerts/eu", N: 2, QueueSize: 5,
			ClientEvents: []msg.ID{"n-1", "n-2"}, Peek: true,
		}},
		{Type: TypeOK, Re: 7},
		{Type: TypeHello, Seq: 1, Name: "dev-1", Caps: LocalCaps()},
		{Type: TypeOK, Re: 1, Caps: LocalCaps()},
		{Type: TypeSubscribe, Seq: 2, Topic: "alerts/eu", TopicPolicy: &TopicPolicy{
			Mode: "on-demand", Policy: "buffer", Max: 8, Threshold: 2.5, PrefetchLimit: 16,
			DelaySeconds: 0.25, InterruptRank: 9, DailyOnlineCap: 100, HistoryLimit: -1,
		}},
		{Type: TypeSubscribe, Seq: 3, Topic: "alerts/eu", TopicPolicy: &TopicPolicy{}},
	}
	for _, f := range frames {
		enc, err := appendFrame(nil, f)
		if err != nil {
			t.Fatalf("encode %s: %v", f.Type, err)
		}
		enc = enc[:len(enc)-1] // Recv strips the newline
		var fast Frame
		if !decodeFrame(enc, &fast) {
			t.Fatalf("fast decoder refused canonical %s frame: %s", f.Type, enc)
		}
		var std Frame
		if err := json.Unmarshal(enc, &std); err != nil {
			t.Fatalf("std decode %s: %v", f.Type, err)
		}
		if !reflect.DeepEqual(&fast, &std) {
			t.Fatalf("decoders disagree on %s frame:\nfast: %+v\nstd:  %+v", f.Type, fast, std)
		}
	}
}

// TestDecodeFrameBailsOnColdShapes checks the strict decoder refuses the
// frame shapes it does not model instead of mis-decoding them.
func TestDecodeFrameBailsOnColdShapes(t *testing.T) {
	for _, line := range []string{
		`{"type":"subscribe","subscription":{"topic":"t","subscriber":"s","options":{}}}`,
		`{"type":"subscribe","topic":"t","topicPolicy":{"quietWindows":[{"startMinutes":0,"endMinutes":60}]}}`,
		`{"type":"hello","name":"x","caps":["push\u002dbatch"]}`,
		`{"type":"hello","name":"x","caps":null}`,
		`{"type":"subscribe","topic":"t","topicPolicy":{"threshold":1e3}}`,
		`{"type":"subscribe","topic":"t","topicPolicy":{"max":1.0}}`,
		`{"type":"resume","topic":"t","haveIDs":["a"],"readIDs":["b"]}`,
		`{"type":"rank-update","rankUpdate":{"topic":"t","id":"a","newRank":2}}`,
		`{"type":"read","read":{"topic":"t","n":8,"after":"x"}}`,
		`{"type":"push","notification":{"id":"é","topic":"t","rank":1,"published":"2026-01-01T00:00:00Z","expires":"0001-01-01T00:00:00Z"}}`,
		`{"type":"push","notification":{"id":"a","topic":"t","rank":1e3,"published":"2026-01-01T00:00:00Z","expires":"0001-01-01T00:00:00Z"}}`,
	} {
		var f Frame
		if decodeFrame([]byte(line), &f) {
			t.Errorf("fast decoder accepted cold shape: %s", line)
		}
	}
}

// TestDecodeReadClientEventsShareOneAllocation: a READ reports every ID
// the device holds, so its IDs share one copy of the list's bytes instead
// of costing a string each.
func TestDecodeReadClientEventsShareOneAllocation(t *testing.T) {
	ids := make([]msg.ID, 256)
	for i := range ids {
		ids[i] = msg.ID(fmt.Sprintf("n-%d", i))
	}
	enc, err := appendFrame(nil, &Frame{Type: TypeRead, Seq: 1, Read: &msg.ReadRequest{Topic: "t", ClientEvents: ids}})
	if err != nil {
		t.Fatal(err)
	}
	enc = enc[:len(enc)-1]
	var f Frame
	allocs := testing.AllocsPerRun(20, func() {
		f = Frame{}
		if !decodeFrame(enc, &f) {
			t.Fatal("fast decoder refused a read frame")
		}
	})
	if !reflect.DeepEqual(f.Read.ClientEvents, ids) {
		t.Fatalf("client events decoded as %v", f.Read.ClientEvents)
	}
	// The request, its topic, the shared bytes and the ID slice.
	if allocs > 4 {
		t.Fatalf("decoding 256 client events took %v allocations, want at most 4", allocs)
	}
}
