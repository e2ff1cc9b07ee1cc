package wire

// Fuzz targets for the frame decoders that face untrusted bytes: the
// servers must never panic on garbage.

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"lasthop/internal/msg"
)

func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte(`{"type":"hello","name":"x"}`))
	f.Add([]byte(`{"type":"hello","name":"x","caps":["push-batch","future-cap"]}`))
	f.Add([]byte(`{"type":"publish","notification":{"id":"a","topic":"t","rank":3}}`))
	f.Add([]byte(`{"type":"read","read":{"topic":"t","n":8,"clientEvents":["a","b"]}}`))
	f.Add([]byte(`{"type":"subscribe","topicPolicy":{"policy":"buffer","max":8}}`))
	f.Add([]byte(`{"type":"subscribe","seq":2,"topic":"t","topicPolicy":{"mode":"on-demand","max":8,"threshold":0.75,"historyLimit":-1}}`))
	f.Add([]byte(`{"type":"ok","re":1,"caps":["push-batch","trace-ctx"]}`))
	f.Add([]byte(`{"type":"subscribe","topic":"t","topicPolicy":{"quietWindows":[{"startMinutes":0,"endMinutes":60}]}}`))
	f.Add([]byte(`{"type":"hello","name":"x","caps":["push\u002dbatch"]}`))
	f.Add([]byte(`{"type":"subscribe","subscription":{"topic":"t","subscriber":"s","options":{}}}`))
	f.Add([]byte(`{"type":"push-batch","batch":[{"id":"a","topic":"t","rank":1},{"id":"b","topic":"t","rank":2,"payload":"aGk="}]}`))
	f.Add([]byte(`{"type":"push-batch","batch":[null,{"id":"c","topic":"t","rank":3},null]}`))
	f.Add([]byte(`{"type":"push-batch","batch":[]}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"a","origin":"b1","hops":[{"node":"b1","at":1700000000000000000}]}}`))
	f.Add([]byte(`{"type":"push-batch","batch":[{"id":"a","topic":"t","rank":1},{"id":"b","topic":"t","rank":2}],"traces":[{"id":"a"},null]}`))
	// Traces longer than the batch: adoptBatchTraces must ignore the tail.
	f.Add([]byte(`{"type":"push-batch","batch":[{"id":"a","topic":"t","rank":1}],"traces":[{"id":"a"},{"id":"ghost"},null]}`))
	// Oversized-but-legal frames: a payload that pushes the encoded frame
	// near (but under) maxFrameBytes, and one batch of many small entries.
	f.Add([]byte(`{"type":"push","notification":{"id":"big","topic":"t","rank":1,"payload":"` +
		strings.Repeat("QUJDRA==", (maxFrameBytes-4096)/8) + `"}}`))
	f.Add([]byte(`{"type":"push-batch","batch":[` +
		strings.Repeat(`{"id":"x","topic":"t","rank":1},`, 4095) +
		`{"id":"last","topic":"t","rank":1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := json.Unmarshal(data, &fr); err != nil {
			return
		}
		// Whatever decoded must survive the paths a server exercises.
		if fr.TopicPolicy != nil {
			_, _ = fr.TopicPolicy.ToConfig("fuzz")
		}
		if fr.Read != nil {
			_ = fr.Read.Validate()
		}
		if fr.Notification != nil {
			_ = fr.Notification.Validate()
		}
		if fr.Subscription != nil {
			_ = fr.Subscription.Validate()
		}
		if fr.RankUpdate != nil {
			_ = fr.RankUpdate.Validate()
		}
		for _, n := range fr.Batch {
			if n != nil {
				_ = n.Validate()
			}
		}
		// Hostile Traces lengths (longer or shorter than Batch) must never
		// panic the reattachment the receive path performs.
		adoptBatchTraces(&fr)
		// Re-encoding must always succeed.
		if _, err := json.Marshal(&fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

func FuzzNotificationRoundTrip(f *testing.F) {
	f.Add("id-1", "topic/a", 4.5, []byte("payload"))
	f.Add("", "", -1.0, []byte(nil))
	f.Fuzz(func(t *testing.T, id, topic string, rank float64, payload []byte) {
		if math.IsNaN(rank) || math.IsInf(rank, 0) {
			t.Skip("non-finite ranks are rejected at encode time")
		}
		n := &msg.Notification{ID: msg.ID(id), Topic: topic, Rank: rank, Payload: payload}
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back msg.Notification
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal own output: %v", err)
		}
		if back.ID != n.ID || back.Topic != n.Topic {
			t.Fatalf("round trip changed identity: %+v vs %+v", back, n)
		}
	})
}

// FuzzBatchFrameEncode drives the hand-rolled hot-path encoder with
// arbitrary batch contents and checks it against encoding/json: both
// encodings must decode to the same frame, and the hand-rolled bytes must
// survive the real frame decoder.
func FuzzBatchFrameEncode(f *testing.F) {
	f.Add(3, "id", "topic/a", "pub", 4.5, []byte("payload"), int64(1_700_000_000))
	f.Add(1, "", "", "", -0.0, []byte(nil), int64(0))
	f.Add(8, "nö\x00n", "t<a>&b", "svc\"q\\", 1e21, []byte{0x00, 0xff}, int64(4_000_000_000))
	// Even batch sizes attach per-entry trace contexts (with nil gaps), so
	// the seed corpus exercises the trace-field encoder too.
	f.Add(5, "tr-1", "node/x", `origin "o"`, 2.5, []byte("p"), int64(123_456_789))
	f.Fuzz(func(t *testing.T, count int, id, topic, publisher string, rank float64, payload []byte, sec int64) {
		if math.IsNaN(rank) || math.IsInf(rank, 0) {
			t.Skip("non-finite ranks are rejected at encode time")
		}
		if count < 0 {
			count = -count
		}
		count = count%8 + 1
		// Keep the timestamp within RFC 3339's representable years; the
		// encoder falls back to encoding/json outside them, and Marshal
		// itself errors there.
		sec %= 250_000_000_000
		if sec < 0 {
			sec = -sec
		}
		at := time.Unix(sec, 0).UTC()
		batch := make([]*msg.Notification, count)
		for i := range batch {
			n := &msg.Notification{
				ID: msg.ID(id), Topic: topic, Rank: rank, Published: at, Payload: payload,
			}
			if i%2 == 1 {
				n.Publisher = publisher
				n.Expires = at.Add(time.Duration(i) * time.Hour)
			}
			batch[i] = n
		}
		fr := &Frame{Type: TypePushBatch, Batch: batch}
		// Even batch sizes carry aligned trace contexts, with every third
		// entry left nil the way an unsampled notification would be.
		if count%2 == 0 {
			fr.Traces = make([]*msg.TraceContext, len(batch))
			for i := range fr.Traces {
				if i%3 == 2 {
					continue
				}
				fr.Traces[i] = &msg.TraceContext{
					TraceID: id, Origin: publisher,
					Hops: []msg.TraceHop{{Node: topic, At: sec}},
				}
			}
		}
		enc, err := appendFrame(nil, fr)
		if err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
		if enc[len(enc)-1] != '\n' {
			t.Fatalf("missing newline terminator: %q", enc)
		}
		ref, err := json.Marshal(fr)
		if err != nil {
			t.Fatalf("json.Marshal reference: %v", err)
		}
		var got, want Frame
		if err := json.Unmarshal(enc[:len(enc)-1], &got); err != nil {
			t.Fatalf("decode appendFrame output: %v\nenc: %s", err, enc)
		}
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatalf("decode reference: %v", err)
		}
		if len(got.Batch) != len(want.Batch) {
			t.Fatalf("batch length diverged: %d vs %d", len(got.Batch), len(want.Batch))
		}
		for i := range got.Batch {
			g, w := got.Batch[i], want.Batch[i]
			if g.ID != w.ID || g.Topic != w.Topic || g.Publisher != w.Publisher ||
				g.Rank != w.Rank || !g.Published.Equal(w.Published) ||
				!g.Expires.Equal(w.Expires) || string(g.Payload) != string(w.Payload) {
				t.Fatalf("entry %d diverged\n got: %+v\nwant: %+v\n enc: %s\n ref: %s", i, g, w, enc, ref)
			}
		}
		if !reflect.DeepEqual(got.Traces, want.Traces) {
			t.Fatalf("trace contexts diverged\n got: %+v\nwant: %+v\n enc: %s\n ref: %s",
				got.Traces, want.Traces, enc, ref)
		}
	})
}

// FuzzDecodeFrameEquivalence holds the hand-rolled frame decoder to
// encoding/json's semantics: whenever the fast path accepts a line, the
// general path must accept it too and produce a frame that re-encodes to
// the identical JSON. (The fast path is allowed to bail — leniency, not
// strictness, is the bug class.)
func FuzzDecodeFrameEquivalence(f *testing.F) {
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":4.25,"published":"2026-08-05T12:30:45.123456789Z","expires":"0001-01-01T00:00:00Z","payload":"aGk="}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":-1,"published":"2026-08-05T12:30:45+02:00","expires":"0001-01-01T00:00:00Z"},"trace":{"id":"t1","origin":"b1","hops":[{"node":"b1","at":1700000000000000000}]}}`))
	f.Add([]byte(`{"type":"push-batch","batch":[{"id":"a","topic":"t","rank":1,"published":"2026-01-01T00:00:00Z","expires":"0001-01-01T00:00:00Z"}],"traces":[null]}`))
	f.Add([]byte(`{"type":"publish","seq":12,"notification":{"id":"a","topic":"t","rank":0,"published":"2026-01-01T00:00:00Z","expires":"0001-01-01T00:00:00Z"}}`))
	f.Add([]byte(`{"type":"ok","re":3}`))
	f.Add([]byte(`{"type":"error","re":3,"message":"no","code":"duplicate-id"}`))
	f.Add([]byte(`{"type":"ping","seq":1}`))
	f.Add([]byte(`{"type":"ok","re":03}`))
	f.Add([]byte(`{"type":"ok","re":3} trailing`))
	f.Add([]byte(`{"type":"push","notification":{"id":"\u00e9","topic":"t","rank":1,"published":"2026-01-01T00:00:00Z","expires":"0001-01-01T00:00:00Z"}}`))
	// Session establishment: the hello, its reply, and the device
	// subscribe are hot; a repeated caps key replaces the list and a
	// repeated topicPolicy merges, as in encoding/json.
	f.Add([]byte(`{"type":"hello","seq":1,"name":"dev-1","caps":["push-batch","trace-ctx","future-cap"]}`))
	f.Add([]byte(`{"type":"ok","re":1,"caps":["push-batch","trace-ctx"]}`))
	f.Add([]byte(`{"type":"hello","caps":["a"],"caps":[]}`))
	f.Add([]byte(`{"type":"subscribe","seq":2,"topic":"t","topicPolicy":{"mode":"on-demand","policy":"buffer","max":8,"threshold":0.75,"prefetchLimit":4,"delaySeconds":1.5,"interruptRank":-2,"dailyOnlineCap":3,"historyLimit":-1}}`))
	f.Add([]byte(`{"type":"subscribe","topic":"t","topicPolicy":{"max":1},"topicPolicy":{"threshold":-0.125}}`))
	f.Add([]byte(`{"type":"subscribe","topic":"t","topicPolicy":{"historyLimit":-2147483648,"max":2147483648}}`))
	// A repeated object or array key: encoding/json merges a repeated
	// object into the same struct and replaces a repeated array, so the
	// fast path must bail or match.
	f.Add([]byte(`{"type":"read","seq":1,"read":{"topic":"t","n":1},"read":{"queueSize":2}}`))
	f.Add([]byte(`{"type":"read","seq":1,"read":{"topic":"t","clientEvents":["a"],"clientEvents":["b","c"]}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"notification":{"rank":2}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"t1"},"trace":{"origin":"b1"}}`))
	f.Add([]byte(`{"type":"push-batch","batch":[{"id":"a","topic":"t","rank":1}],"batch":[{"id":"b","topic":"t","rank":2}]}`))
	f.Add([]byte(`{"type":"push-batch","batch":[],"batch":[{"id":"b","topic":"t","rank":2}],"traces":[null],"traces":[{"id":"b"}]}`))
	// Shapes that stay cold.
	f.Add([]byte(`{"type":"subscribe","topic":"t","topicPolicy":{"quietWindows":[{"startMinutes":0,"endMinutes":60}]}}`))
	f.Add([]byte(`{"type":"hello","name":"x","caps":["push\u002dbatch"]}`))
	f.Add([]byte(`{"type":"subscribe","subscription":{"topic":"t","subscriber":"s","options":{}}}`))
	// Hop timestamps at and beyond the int64 range: encoding/json rejects
	// anything past MaxInt64 (or below MinInt64), so the fast path must
	// bail rather than wrap. MinInt64 itself is in range and must agree.
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"t1","origin":"b1","hops":[{"node":"b1","at":9223372036854775807}]}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"t1","origin":"b1","hops":[{"node":"b1","at":9223372036854775808}]}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"t1","origin":"b1","hops":[{"node":"b1","at":9223372036854775809}]}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"t1","origin":"b1","hops":[{"node":"b1","at":-9223372036854775808}]}}`))
	f.Add([]byte(`{"type":"push","notification":{"id":"a","topic":"t","rank":1},"trace":{"id":"t1","origin":"b1","hops":[{"node":"b1","at":-9223372036854775809}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast Frame
		if !decodeFrame(data, &fast) {
			return
		}
		var std Frame
		if err := json.Unmarshal(data, &std); err != nil {
			t.Fatalf("fast decoder accepted input encoding/json rejects (%v): %q", err, data)
		}
		fj, err1 := json.Marshal(&fast)
		sj, err2 := json.Marshal(&std)
		if err1 != nil || err2 != nil {
			t.Fatalf("re-encode: %v / %v", err1, err2)
		}
		if string(fj) != string(sj) {
			t.Fatalf("decoders disagree on %q:\nfast: %s\nstd:  %s", data, fj, sj)
		}
	})
}
