package wire

import (
	"encoding/base64"
	"strings"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// The decoder below hand-rolls the JSON for the frame shapes that dominate
// wire traffic — pushes, push batches, publishes, reads, and OK/error
// responses — mirroring the hand-rolled encoders in encode.go, plus the
// session-establishment shapes every reconnect repeats: the hello, its
// OK reply carrying caps, and the device subscribe with its topic policy.
// encoding/json's reflective Unmarshal into the 18-field Frame struct is
// the single largest per-notification allocation source on the receive
// path, and its deep call chains grow the reading goroutine's stack. The
// decoder is strict: any shape it does not recognize exactly (an
// unexpected key, a string escape, an exotic number) makes it bail and the
// caller falls back to json.Unmarshal, so the two paths accept the same
// frames and fill identical structs.

// decodeOpts carries per-connection decode resources: the optional
// notification free pool and the topic/publisher intern table. The zero
// value (and a nil pointer) decodes exactly like the pre-pool path:
// plain heap notifications, fresh strings.
type decodeOpts struct {
	pool  *burst.NotePool
	names map[string]string
}

// maxInternedNames bounds the per-connection intern table so a hostile
// peer cannot grow it without bound.
const maxInternedNames = 1024

// newNote allocates the next notification: from the pool when enabled
// (ownership passes to the frame's consumer), otherwise from the heap.
func (o *decodeOpts) newNote() *msg.Notification {
	if o != nil && o.pool != nil {
		return o.pool.Get()
	}
	return new(msg.Notification)
}

// intern returns a string with v's content, reusing a previously seen
// copy so repeated topic and publisher names cost zero allocations.
func (o *decodeOpts) intern(v []byte) string {
	if o == nil || o.names == nil {
		return string(v)
	}
	if s, ok := o.names[string(v)]; ok {
		return s
	}
	s := string(v)
	if len(o.names) < maxInternedNames {
		o.names[s] = s
	}
	return s
}

// decodeFrame attempts the fast decode of one newline-stripped frame into
// f with default options — plain heap notifications, no interning. The
// fuzz parity tests pin this path against encoding/json.
func decodeFrame(data []byte, f *Frame) bool {
	return decodeFrameOpts(data, f, nil)
}

// decodeFrameOpts attempts the fast decode of one newline-stripped frame
// into f. It reports false — with f possibly partially filled — when the
// frame is not one of the recognized hot shapes; the caller must then
// release any pooled notifications reachable from f (they are attached to
// f before their content parses, precisely so the bail path can find
// them), reset f, and take the encoding/json path.
func decodeFrameOpts(data []byte, f *Frame, o *decodeOpts) bool {
	d := frameDecoder{data: data, opts: o}
	d.ws()
	if !d.consume('{') {
		return false
	}
	d.ws()
	if d.consume('}') {
		return false // no type field; let encoding/json produce the error
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.consume(':') {
			return false
		}
		d.ws()
		// A repeated object or array key bails: encoding/json merges a
		// repeated object into the first and replaces a repeated array,
		// and a replaced pooled notification would leak from the pool.
		switch string(key) {
		case "type":
			v, ok := d.str()
			if !ok {
				return false
			}
			// Intern the known types so the hot path does not allocate a
			// string per frame; unknown types fall back (the slow path
			// reports them with the same struct shape).
			switch string(v) {
			case TypePush:
				f.Type = TypePush
			case TypePushBatch:
				f.Type = TypePushBatch
			case TypeOK:
				f.Type = TypeOK
			case TypeErr:
				f.Type = TypeErr
			case TypePublish:
				f.Type = TypePublish
			case TypeRead:
				f.Type = TypeRead
			case TypePing:
				f.Type = TypePing
			case TypePong:
				f.Type = TypePong
			case TypeHello:
				f.Type = TypeHello
			case TypeSubscribe:
				f.Type = TypeSubscribe
			default:
				return false
			}
		case "seq":
			v, ok := d.uint()
			if !ok {
				return false
			}
			f.Seq = v
		case "re":
			v, ok := d.uint()
			if !ok {
				return false
			}
			f.Re = v
		case "name":
			v, ok := d.str()
			if !ok {
				return false
			}
			f.Name = string(v)
		case "topic":
			v, ok := d.str()
			if !ok {
				return false
			}
			f.Topic = string(v)
		case "publisher":
			v, ok := d.str()
			if !ok {
				return false
			}
			f.Publisher = string(v)
		case "message":
			v, ok := d.str()
			if !ok {
				return false
			}
			f.Message = string(v)
		case "code":
			v, ok := d.str()
			if !ok {
				return false
			}
			f.Code = string(v)
		case "count":
			v, ok := d.uint()
			if !ok || v > 1<<31 {
				return false
			}
			f.Count = int(v)
		case "read":
			if f.Read != nil {
				return false
			}
			r := new(msg.ReadRequest)
			if !d.readRequest(r) {
				return false
			}
			f.Read = r
		case "notification":
			if f.Notification != nil {
				return false
			}
			n := d.opts.newNote()
			f.Notification = n
			if !d.notification(n) {
				return false
			}
		case "batch":
			if len(f.Batch) != 0 || !d.consume('[') {
				return false
			}
			d.ws()
			if !d.consume(']') {
				for {
					n := d.opts.newNote()
					f.Batch = append(f.Batch, n)
					if !d.notification(n) {
						return false
					}
					d.ws()
					if d.consume(',') {
						d.ws()
						continue
					}
					if d.consume(']') {
						break
					}
					return false
				}
			}
		case "trace":
			if f.Trace != nil {
				return false
			}
			t := new(msg.TraceContext)
			if !d.traceContext(t) {
				return false
			}
			f.Trace = t
		case "traces":
			if len(f.Traces) != 0 || !d.consume('[') {
				return false
			}
			d.ws()
			if !d.consume(']') {
				for {
					if d.literal("null") {
						f.Traces = append(f.Traces, nil)
					} else {
						t := new(msg.TraceContext)
						if !d.traceContext(t) {
							return false
						}
						f.Traces = append(f.Traces, t)
					}
					d.ws()
					if d.consume(',') {
						d.ws()
						continue
					}
					if d.consume(']') {
						break
					}
					return false
				}
			}
		case "caps":
			if f.Caps != nil || !d.consume('[') {
				return false
			}
			// Non-nil even when empty, like encoding/json.
			f.Caps = make([]string, 0, 2)
			d.ws()
			if !d.consume(']') {
				for {
					v, ok := d.str()
					if !ok {
						return false
					}
					f.Caps = append(f.Caps, internCap(v))
					d.ws()
					if d.consume(',') {
						d.ws()
						continue
					}
					if d.consume(']') {
						break
					}
					return false
				}
			}
		case "topicPolicy":
			if f.TopicPolicy != nil {
				return false
			}
			f.TopicPolicy = new(TopicPolicy)
			if !d.topicPolicy(f.TopicPolicy) {
				return false
			}
		default:
			// Cold frame shapes (resume, rank updates, broker
			// subscriptions, …) carry keys this decoder does not model.
			return false
		}
		d.ws()
		if d.consume(',') {
			d.ws()
			continue
		}
		if d.consume('}') {
			break
		}
		return false
	}
	d.ws()
	return d.pos == len(d.data) && f.Type != ""
}

// internCap returns the capability token v names, without allocating for
// the tokens this build knows.
func internCap(v []byte) string {
	switch string(v) {
	case CapPushBatch:
		return CapPushBatch
	case CapTrace:
		return CapTrace
	}
	return string(v)
}

type frameDecoder struct {
	data []byte
	pos  int
	opts *decodeOpts
}

func (d *frameDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

func (d *frameDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *frameDecoder) literal(s string) bool {
	if len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// str parses a JSON string and returns a view into the input. Escape
// sequences, control characters, and non-ASCII bytes make it bail — exact
// unescaping and encoding/json's invalid-UTF-8 sanitization are the slow
// path's job, and every ID and topic the system mints is plain ASCII.
func (d *frameDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.pos
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			v := d.data[start:d.pos]
			d.pos++
			return v, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		default:
			d.pos++
		}
	}
	return nil, false
}

// uint parses a plain non-negative integer (no sign, fraction, exponent,
// or leading zero — JSON forbids the latter) — the only way the system
// encodes sequence numbers, counts, and hop timestamps.
func (d *frameDecoder) uint() (uint64, bool) {
	start := d.pos
	var v uint64
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c < '0' || c > '9' {
			break
		}
		if v > (1<<63)/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		d.pos++
	}
	if d.pos == start {
		return 0, false
	}
	if d.data[start] == '0' && d.pos > start+1 {
		return 0, false
	}
	return v, true
}

// int parses a plain integer with an optional minus sign. Magnitudes
// beyond 1<<31 bail, so the result fits an int on every platform.
func (d *frameDecoder) int() (int, bool) {
	neg := d.consume('-')
	v, ok := d.uint()
	if !ok || v > 1<<31 {
		return 0, false
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

// float parses a decimal with an optional sign and fraction. Mantissas up
// to 15 significant digits convert exactly (integer mantissa divided by an
// exact power of ten, correctly rounded — identical to strconv); longer
// ones and exponent notation bail to the slow path.
func (d *frameDecoder) float() (float64, bool) {
	neg := d.consume('-')
	start := d.pos
	var mant uint64
	digits := 0
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		mant = mant*10 + uint64(d.data[d.pos]-'0')
		digits++
		d.pos++
	}
	if d.pos == start || digits > 15 {
		return 0, false
	}
	if d.data[start] == '0' && digits > 1 {
		return 0, false
	}
	frac := 0
	if d.consume('.') {
		fstart := d.pos
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			mant = mant*10 + uint64(d.data[d.pos]-'0')
			frac++
			d.pos++
		}
		if d.pos == fstart || digits+frac > 15 {
			return 0, false
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		return 0, false
	}
	v := float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true
}

var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// readRequest parses the object appendReadRequest emits. clientEvents is
// the high-volume field — a device reports every ID it consumed since the
// last read — so keeping read requests on the strict decoder spares the
// ingest path a reflective parse of the bulkiest device→proxy frame.
func (d *frameDecoder) readRequest(r *msg.ReadRequest) bool {
	d.ws()
	if !d.consume('{') {
		return false
	}
	d.ws()
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.consume(':') {
			return false
		}
		d.ws()
		switch string(key) {
		case "topic":
			v, ok := d.str()
			if !ok {
				return false
			}
			r.Topic = d.opts.intern(v)
		case "n":
			v, ok := d.uint()
			if !ok || v > 1<<31 {
				return false
			}
			r.N = int(v)
		case "queueSize":
			v, ok := d.uint()
			if !ok || v > 1<<31 {
				return false
			}
			r.QueueSize = int(v)
		case "clientEvents":
			if r.ClientEvents != nil {
				return false
			}
			if r.ClientEvents, ok = d.idList(); !ok {
				return false
			}
		case "peek":
			switch {
			case d.literal("true"):
				r.Peek = true
			case d.literal("false"):
				r.Peek = false
			default:
				return false
			}
		default:
			return false
		}
		d.ws()
		if d.consume(',') {
			d.ws()
			continue
		}
		return d.consume('}')
	}
}

// topicPolicy parses a device subscribe's policy: its scalar fields.
// QuietWindows, the one nested field, bails to the slow path.
func (d *frameDecoder) topicPolicy(p *TopicPolicy) bool {
	d.ws()
	if !d.consume('{') {
		return false
	}
	d.ws()
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.consume(':') {
			return false
		}
		d.ws()
		switch string(key) {
		case "mode":
			v, ok := d.str()
			if !ok {
				return false
			}
			p.Mode = string(v)
		case "policy":
			v, ok := d.str()
			if !ok {
				return false
			}
			p.Policy = string(v)
		case "max":
			if p.Max, ok = d.int(); !ok {
				return false
			}
		case "prefetchLimit":
			if p.PrefetchLimit, ok = d.int(); !ok {
				return false
			}
		case "dailyOnlineCap":
			if p.DailyOnlineCap, ok = d.int(); !ok {
				return false
			}
		case "historyLimit":
			if p.HistoryLimit, ok = d.int(); !ok {
				return false
			}
		case "threshold":
			if p.Threshold, ok = d.float(); !ok {
				return false
			}
		case "delaySeconds":
			if p.DelaySeconds, ok = d.float(); !ok {
				return false
			}
		case "interruptRank":
			if p.InterruptRank, ok = d.float(); !ok {
				return false
			}
		default:
			return false
		}
		d.ws()
		if d.consume(',') {
			d.ws()
			continue
		}
		return d.consume('}')
	}
}

// idList parses an array of plain strings into IDs that share one
// allocation: a device reports every ID it holds on each READ, and a
// string per ID would make the read the costliest frame a host decodes.
// The list is non-nil even when empty, like encoding/json's.
func (d *frameDecoder) idList() ([]msg.ID, bool) {
	if !d.consume('[') {
		return nil, false
	}
	start, n := d.pos, 0
	d.ws()
	if !d.consume(']') {
		for {
			if _, ok := d.str(); !ok {
				return nil, false
			}
			n++
			d.ws()
			if d.consume(',') {
				d.ws()
				continue
			}
			if d.consume(']') {
				break
			}
			return nil, false
		}
	}
	// str admitted no escapes, so every '"' in the copy delimits an ID.
	block := string(d.data[start:d.pos])
	ids := make([]msg.ID, 0, n)
	for rest := block; ; {
		i := strings.IndexByte(rest, '"')
		if i < 0 {
			return ids, true
		}
		rest = rest[i+1:]
		i = strings.IndexByte(rest, '"')
		ids = append(ids, msg.ID(rest[:i]))
		rest = rest[i+1:]
	}
}

// notification parses the object appendNotification emits. Unknown keys —
// or known keys holding null — bail.
func (d *frameDecoder) notification(n *msg.Notification) bool {
	d.ws()
	if !d.consume('{') {
		return false
	}
	d.ws()
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.consume(':') {
			return false
		}
		d.ws()
		switch string(key) {
		case "id":
			v, ok := d.str()
			if !ok {
				return false
			}
			n.ID = msg.ID(v)
		case "topic":
			v, ok := d.str()
			if !ok {
				return false
			}
			n.Topic = d.opts.intern(v)
		case "publisher":
			v, ok := d.str()
			if !ok {
				return false
			}
			n.Publisher = d.opts.intern(v)
		case "rank":
			v, ok := d.float()
			if !ok {
				return false
			}
			n.Rank = v
		case "published":
			v, ok := d.str()
			if !ok {
				return false
			}
			t, ok := parseRFC3339(v)
			if !ok {
				return false
			}
			n.Published = t
		case "expires":
			v, ok := d.str()
			if !ok {
				return false
			}
			t, ok := parseRFC3339(v)
			if !ok {
				return false
			}
			n.Expires = t
		case "payload":
			v, ok := d.str()
			if !ok {
				return false
			}
			// Decode straight from the read-buffer view into the
			// notification's (possibly pool-retained) payload buffer: no
			// intermediate copy.
			need := base64.StdEncoding.DecodedLen(len(v))
			p := n.Payload
			if cap(p) < need {
				p = make([]byte, need)
			} else {
				p = p[:need]
			}
			m, err := base64.StdEncoding.Decode(p, v)
			if err != nil {
				return false
			}
			n.Payload = p[:m]
		default:
			return false
		}
		d.ws()
		if d.consume(',') {
			d.ws()
			continue
		}
		return d.consume('}')
	}
}

// traceContext parses the object appendTraceContext emits.
func (d *frameDecoder) traceContext(t *msg.TraceContext) bool {
	d.ws()
	if !d.consume('{') {
		return false
	}
	d.ws()
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.consume(':') {
			return false
		}
		d.ws()
		switch string(key) {
		case "id":
			v, ok := d.str()
			if !ok {
				return false
			}
			t.TraceID = string(v)
		case "origin":
			v, ok := d.str()
			if !ok {
				return false
			}
			t.Origin = string(v)
		case "hops":
			if len(t.Hops) != 0 || !d.consume('[') {
				return false
			}
			d.ws()
			if !d.consume(']') {
				for {
					var h msg.TraceHop
					if !d.traceHop(&h) {
						return false
					}
					t.Hops = append(t.Hops, h)
					d.ws()
					if d.consume(',') {
						d.ws()
						continue
					}
					if d.consume(']') {
						break
					}
					return false
				}
			}
		default:
			return false
		}
		d.ws()
		if d.consume(',') {
			d.ws()
			continue
		}
		return d.consume('}')
	}
}

func (d *frameDecoder) traceHop(h *msg.TraceHop) bool {
	d.ws()
	if !d.consume('{') {
		return false
	}
	d.ws()
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.consume(':') {
			return false
		}
		d.ws()
		switch string(key) {
		case "node":
			v, ok := d.str()
			if !ok {
				return false
			}
			h.Node = string(v)
		case "at":
			neg := d.consume('-')
			v, ok := d.uint()
			if !ok {
				return false
			}
			// uint's overflow guard runs before the final multiply, so v
			// can reach 1<<63+9; anything int64 cannot represent must bail
			// so the slow path rejects it with its out-of-range error
			// instead of the cast wrapping negative here. 1<<63 itself is
			// valid only as -9223372036854775808.
			if v > 1<<63 || (!neg && v == 1<<63) {
				return false
			}
			h.At = int64(v) // v == 1<<63 wraps to MinInt64, which negation below preserves
			if neg {
				h.At = -h.At
			}
		default:
			return false
		}
		d.ws()
		if d.consume(',') {
			d.ws()
			continue
		}
		return d.consume('}')
	}
}

// parseRFC3339 parses the RFC 3339 timestamps the encoders emit
// (time.RFC3339Nano) without the string conversion and layout matching of
// time.Parse. It accepts exactly what time.Parse(time.RFC3339Nano, ·)
// accepts for these shapes and produces identical Times (UTC for 'Z',
// a fixed zone otherwise); anything else bails to the slow path.
func parseRFC3339(b []byte) (time.Time, bool) {
	// Minimum: "2006-01-02T15:04:05Z" = 20 bytes.
	if len(b) < 20 {
		return time.Time{}, false
	}
	year, ok := atoi4(b[0:4])
	if !ok || b[4] != '-' {
		return time.Time{}, false
	}
	month, ok := atoi2(b[5:7])
	if !ok || b[7] != '-' || month < 1 || month > 12 {
		return time.Time{}, false
	}
	day, ok := atoi2(b[8:10])
	if !ok || b[10] != 'T' || day < 1 || day > daysIn(year, month) {
		return time.Time{}, false
	}
	hour, ok := atoi2(b[11:13])
	if !ok || b[13] != ':' || hour > 23 {
		return time.Time{}, false
	}
	minute, ok := atoi2(b[14:16])
	if !ok || b[16] != ':' || minute > 59 {
		return time.Time{}, false
	}
	sec, ok := atoi2(b[17:19])
	if !ok || sec > 59 {
		return time.Time{}, false
	}
	rest := b[19:]
	nsec := 0
	if rest[0] == '.' {
		i := 1
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		digits := i - 1
		if digits == 0 {
			return time.Time{}, false
		}
		// time.Parse truncates fractions beyond nanoseconds.
		for j := 1; j < i; j++ {
			if j <= 9 {
				nsec = nsec*10 + int(rest[j]-'0')
			}
		}
		for j := digits; j < 9; j++ {
			nsec *= 10
		}
		rest = rest[i:]
	}
	if len(rest) == 0 {
		return time.Time{}, false
	}
	var loc *time.Location
	switch rest[0] {
	case 'Z':
		if len(rest) != 1 {
			return time.Time{}, false
		}
		loc = time.UTC
	case '+', '-':
		if len(rest) != 6 || rest[3] != ':' {
			return time.Time{}, false
		}
		oh, ok1 := atoi2(rest[1:3])
		om, ok2 := atoi2(rest[4:6])
		if !ok1 || !ok2 || oh > 23 || om > 59 {
			return time.Time{}, false
		}
		off := (oh*60 + om) * 60
		if rest[0] == '-' {
			off = -off
		}
		if off == 0 {
			// time.Parse canonicalizes a zero offset to UTC.
			loc = time.UTC
		} else {
			loc = time.FixedZone("", off)
		}
	default:
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, loc), true
}

func atoi2(b []byte) (int, bool) {
	if b[0] < '0' || b[0] > '9' || b[1] < '0' || b[1] > '9' {
		return 0, false
	}
	return int(b[0]-'0')*10 + int(b[1]-'0'), true
}

func atoi4(b []byte) (int, bool) {
	hi, ok1 := atoi2(b[0:2])
	lo, ok2 := atoi2(b[2:4])
	if !ok1 || !ok2 {
		return 0, false
	}
	return hi*100 + lo, true
}

func daysIn(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return 28
}
