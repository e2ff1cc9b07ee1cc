package rankedq

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"lasthop/internal/msg"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func note(id msg.ID, rank float64) *msg.Notification {
	return &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: t0}
}

func expiring(id msg.ID, rank float64, life time.Duration) *msg.Notification {
	n := note(id, rank)
	n.Expires = t0.Add(life)
	return n
}

func TestQueuePushPopOrder(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 5), note("c", 3)} {
		if err := q.Push(n); err != nil {
			t.Fatalf("Push(%s): %v", n.ID, err)
		}
	}
	want := []msg.ID{"b", "c", "a"}
	for _, id := range want {
		n, ok := q.PopBest()
		if !ok || n.ID != id {
			t.Fatalf("PopBest = %v, want %s", n, id)
		}
	}
	if _, ok := q.PopBest(); ok {
		t.Error("PopBest on empty queue returned ok")
	}
}

func TestQueueDuplicatePush(t *testing.T) {
	q := NewQueue()
	if err := q.Push(note("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(note("a", 2)); err == nil {
		t.Error("duplicate push accepted")
	}
	if err := q.Push(nil); err == nil {
		t.Error("nil push accepted")
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 5), note("c", 3), note("d", 4)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	n, ok := q.Remove("c")
	if !ok || n.ID != "c" {
		t.Fatalf("Remove(c) = %v, %v", n, ok)
	}
	if _, ok := q.Remove("c"); ok {
		t.Error("second Remove(c) succeeded")
	}
	if q.Contains("c") {
		t.Error("removed ID still contained")
	}
	want := []msg.ID{"b", "d", "a"}
	for _, id := range want {
		n, ok := q.PopBest()
		if !ok || n.ID != id {
			t.Fatalf("after Remove, PopBest = %v, want %s", n, id)
		}
	}
}

func TestQueueGetContains(t *testing.T) {
	q := NewQueue()
	if err := q.Push(note("a", 2)); err != nil {
		t.Fatal(err)
	}
	n, ok := q.Get("a")
	if !ok || n.Rank != 2 {
		t.Errorf("Get(a) = %v, %v", n, ok)
	}
	if _, ok := q.Get("zz"); ok {
		t.Error("Get of absent ID succeeded")
	}
	if !q.Contains("a") || q.Contains("zz") {
		t.Error("Contains wrong")
	}
}

func TestQueueUpdateRank(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 2), note("c", 3)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	if !q.UpdateRank("a", 10) {
		t.Fatal("UpdateRank of queued ID failed")
	}
	if q.UpdateRank("zz", 10) {
		t.Fatal("UpdateRank of absent ID succeeded")
	}
	best, _ := q.PeekBest()
	if best.ID != "a" || best.Rank != 10 {
		t.Errorf("after raise, best = %+v", best)
	}
	q.UpdateRank("a", 0)
	best, _ = q.PeekBest()
	if best.ID != "c" {
		t.Errorf("after drop, best = %+v", best)
	}
}

func TestQueueBestN(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 5), note("c", 3), note("d", 4)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	got := q.BestN(2)
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "d" {
		t.Errorf("BestN(2) = %v", ids(got))
	}
	if q.Len() != 4 {
		t.Error("BestN mutated the queue")
	}
	if got := q.BestN(100); len(got) != 4 {
		t.Errorf("BestN(100) returned %d items", len(got))
	}
	if got := q.BestN(0); got != nil {
		t.Error("BestN(0) != nil")
	}

	taken := q.TakeBestN(3)
	if len(taken) != 3 || taken[0].ID != "b" || taken[1].ID != "d" || taken[2].ID != "c" {
		t.Errorf("TakeBestN(3) = %v", ids(taken))
	}
	if q.Len() != 1 {
		t.Errorf("after TakeBestN, Len = %d", q.Len())
	}
}

func TestQueueIDsEachClear(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 2)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	idSlice := q.IDs()
	sort.Slice(idSlice, func(i, j int) bool { return idSlice[i] < idSlice[j] })
	if len(idSlice) != 2 || idSlice[0] != "a" || idSlice[1] != "b" {
		t.Errorf("IDs = %v", idSlice)
	}
	set := q.IDSet()
	if set.Len() != 2 || !set.Contains("a") {
		t.Errorf("IDSet = %v", set)
	}
	count := 0
	q.Each(func(*msg.Notification) { count++ })
	if count != 2 {
		t.Errorf("Each visited %d", count)
	}
	q.Clear()
	if q.Len() != 0 || q.Contains("a") {
		t.Error("Clear left state behind")
	}
}

// TestQueueHeapProperty drives a random operation sequence and checks that
// pops always come out in rank order and the index stays consistent.
func TestQueueHeapProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		live := map[msg.ID]float64{}
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				id := msg.ID(rune('a'+next%26)) + msg.ID(rune('0'+(next/26)%10))
				next++
				r := float64(rng.Intn(100))
				if _, dup := live[id]; dup {
					continue
				}
				if err := q.Push(note(id, r)); err != nil {
					return false
				}
				live[id] = r
			case 2: // pop best
				n, ok := q.PopBest()
				if !ok {
					if len(live) != 0 {
						return false
					}
					continue
				}
				maxRank := -1.0
				for _, r := range live {
					if r > maxRank {
						maxRank = r
					}
				}
				if n.Rank != maxRank {
					return false
				}
				delete(live, n.ID)
			case 3: // remove random live
				for id := range live {
					if _, ok := q.Remove(id); !ok {
						return false
					}
					delete(live, id)
					break
				}
			}
			if q.Len() != len(live) {
				return false
			}
		}
		// Drain: must come out in non-increasing rank order.
		prev := 1e18
		for {
			n, ok := q.PopBest()
			if !ok {
				break
			}
			if n.Rank > prev {
				return false
			}
			prev = n.Rank
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExpiryIndexOrder(t *testing.T) {
	x := NewExpiryIndex()
	if err := x.Add(expiring("a", 1, 3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(expiring("b", 1, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(expiring("c", 1, 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(note("never", 1)); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (never-expiring ignored)", x.Len())
	}
	next, ok := x.NextExpiry()
	if !ok || !next.Equal(t0.Add(time.Hour)) {
		t.Errorf("NextExpiry = %v, %v", next, ok)
	}

	got := x.PopExpired(t0.Add(2 * time.Hour))
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("PopExpired = %v, want [b c]", got)
	}
	if got := x.PopExpired(t0.Add(2 * time.Hour)); got != nil {
		t.Errorf("second PopExpired = %v, want nil", got)
	}
	if x.Len() != 1 {
		t.Errorf("Len = %d, want 1", x.Len())
	}
}

func TestExpiryIndexRemoveDuplicate(t *testing.T) {
	x := NewExpiryIndex()
	n := expiring("a", 1, time.Hour)
	if err := x.Add(n); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(n); err == nil {
		t.Error("duplicate Add accepted")
	}
	if !x.Remove("a") {
		t.Error("Remove of indexed ID failed")
	}
	if x.Remove("a") {
		t.Error("second Remove succeeded")
	}
	if _, ok := x.NextExpiry(); ok {
		t.Error("NextExpiry on empty index returned ok")
	}
}

// TestExpiryIndexProperty checks PopExpired returns exactly the entries at
// or before the probe time, in non-decreasing expiry order.
func TestExpiryIndexProperty(t *testing.T) {
	f := func(lives []uint16, probe uint16) bool {
		x := NewExpiryIndex()
		want := map[msg.ID]bool{}
		for i, l := range lives {
			id := msg.ID(rune('a'+i%26)) + msg.ID(rune('0'+(i/26)%10)) + msg.ID(rune('0'+(i/260)%10))
			life := time.Duration(l) * time.Second
			if err := x.Add(expiring(id, 1, life)); err != nil {
				return false
			}
			if life <= time.Duration(probe)*time.Second {
				want[id] = true
			}
		}
		got := x.PopExpired(t0.Add(time.Duration(probe) * time.Second))
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return x.Len() == len(lives)-len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistoryUnbounded(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		h := NewHistory(capacity)
		var want []msg.ID
		for i := 0; i < 1000; i++ {
			id := msg.ID(fmt.Sprintf("u%04d", i))
			if evicted, ok := h.Add(id); ok {
				t.Fatalf("capacity %d: Add(%s) evicted %s", capacity, id, evicted)
			}
			want = append(want, id)
		}
		if h.Len() != len(want) || !slices.Equal(h.IDs(), want) {
			t.Errorf("capacity %d: Len %d, IDs %v; want all %d in arrival order", capacity, h.Len(), h.IDs(), len(want))
		}
	}
}

func TestHistoryEviction(t *testing.T) {
	h := NewHistory(3)
	for _, id := range []msg.ID{"a", "b", "c"} {
		if evicted, ok := h.Add(id); ok {
			t.Fatalf("premature eviction of %s", evicted)
		}
	}
	// Each Add past capacity evicts exactly the oldest remaining ID.
	for _, step := range []struct{ add, evicted msg.ID }{{"d", "a"}, {"e", "b"}, {"f", "c"}, {"g", "d"}} {
		evicted, ok := h.Add(step.add)
		if !ok || evicted != step.evicted {
			t.Fatalf("Add(%s) evicted %q, %v; want %q", step.add, evicted, ok, step.evicted)
		}
		if h.Len() != 3 {
			t.Errorf("Len = %d, want 3", h.Len())
		}
	}
	if got, want := h.IDs(), []msg.ID{"e", "f", "g"}; !slices.Equal(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
}

// TestHistoryCapacityProperty: after any sequence of new IDs the history
// holds the most recent min(n, capacity) in arrival order, has evicted the
// rest oldest first, and replaying IDs() into a fresh history reproduces
// the same state.
func TestHistoryCapacityProperty(t *testing.T) {
	f := func(n uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		h := NewHistory(capacity)
		var all, evicted []msg.ID
		for i := 0; i < int(n%200); i++ {
			id := msg.ID(fmt.Sprintf("p%03d", i))
			all = append(all, id)
			if old, ok := h.Add(id); ok {
				evicted = append(evicted, old)
			}
		}
		kept := all[max(0, len(all)-capacity):]
		if h.Len() != len(kept) || !slices.Equal(h.IDs(), kept) || !slices.Equal(evicted, all[:len(all)-len(kept)]) {
			return false
		}
		replay := NewHistory(capacity)
		for _, id := range h.IDs() {
			replay.Add(id)
		}
		next := msg.ID("next")
		a, aok := h.Add(next)
		b, bok := replay.Add(next)
		return a == b && aok == bok && slices.Equal(h.IDs(), replay.IDs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHistoryCompaction: a full history churning through many IDs keeps
// its storage at capacity; the ring is overwritten in place.
func TestHistoryCompaction(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 4; i++ {
		h.Add(msg.ID(fmt.Sprintf("c%05d", i)))
	}
	ring := &h.ring[0]
	for i := 4; i < 10000; i++ {
		h.Add(msg.ID(fmt.Sprintf("c%05d", i)))
	}
	if h.Len() != 4 || len(h.ring) != 4 || cap(h.ring) != 4 {
		t.Errorf("Len = %d, ring len %d cap %d; want 4, 4, 4", h.Len(), len(h.ring), cap(h.ring))
	}
	if &h.ring[0] != ring {
		t.Error("full ring reallocated under churn")
	}
	if got, want := h.IDs(), []msg.ID{"c09996", "c09997", "c09998", "c09999"}; !slices.Equal(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
}

func ids(notes []*msg.Notification) []msg.ID {
	out := make([]msg.ID, len(notes))
	for i, n := range notes {
		out[i] = n.ID
	}
	return out
}

func TestQueueShrinksAfterBurst(t *testing.T) {
	q := NewQueue()
	const burst = 1024
	for i := 0; i < burst; i++ {
		if err := q.Push(note(msg.ID(fmt.Sprintf("n%04d", i)), float64(i%7))); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	grown := cap(q.h.items)
	if grown < burst {
		t.Fatalf("expected capacity >= %d after burst, got %d", burst, grown)
	}
	// Drain below a quarter of the high-water capacity: the backing array
	// must be released rather than pinned at burst size forever.
	for q.Len() > grown/8 {
		if _, ok := q.PopBest(); !ok {
			t.Fatal("queue drained early")
		}
	}
	if c := cap(q.h.items); c >= grown/2+1 {
		t.Fatalf("backing array not released: len=%d cap=%d (burst cap %d)", q.Len(), c, grown)
	}
	// Shrinking must preserve the index: every remaining ID resolves and
	// pops in rank order.
	seen := 0
	for {
		n, ok := q.PeekBest()
		if !ok {
			break
		}
		if got, ok := q.Get(n.ID); !ok || got != n {
			t.Fatalf("index broken after shrink for %q", n.ID)
		}
		if popped, ok := q.PopBest(); !ok || popped != n {
			t.Fatalf("pop mismatch after shrink for %q", n.ID)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("expected survivors after partial drain")
	}
}

func TestQueueSmallNeverShrinks(t *testing.T) {
	q := NewQueue()
	for i := 0; i < shrinkFloor/4; i++ {
		if err := q.Push(note(msg.ID(fmt.Sprintf("s%02d", i)), float64(i))); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	before := cap(q.h.items)
	for q.Len() > 0 {
		q.PopBest()
	}
	if c := cap(q.h.items); c != before {
		t.Fatalf("small queue shrank below floor: cap %d -> %d", before, c)
	}
}

func TestQueueRemoveShrinks(t *testing.T) {
	q := NewQueue()
	const burst = 512
	all := make([]msg.ID, 0, burst)
	for i := 0; i < burst; i++ {
		id := msg.ID(fmt.Sprintf("r%04d", i))
		all = append(all, id)
		if err := q.Push(note(id, float64(i))); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	grown := cap(q.h.items)
	for _, id := range all[:burst-burst/16] {
		if _, ok := q.Remove(id); !ok {
			t.Fatalf("remove %q failed", id)
		}
	}
	if c := cap(q.h.items); c >= grown {
		t.Fatalf("Remove path did not shrink: cap still %d (burst cap %d)", c, grown)
	}
}
