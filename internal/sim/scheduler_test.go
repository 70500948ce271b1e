package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/routing"
)

// schedOracle is the reference pending set: a plain slice kept sorted by
// (at, seq), sharing no code with the scheduler.
type schedOracle []event

func (o *schedOracle) push(e event) {
	q := *o
	i := sort.Search(len(q), func(i int) bool {
		return q[i].at > e.at || (q[i].at == e.at && q[i].seq > e.seq)
	})
	q = append(q, event{})
	copy(q[i+1:], q[i:])
	q[i] = e
	*o = q
}

func (o *schedOracle) pop(limit int64) (event, bool) {
	q := *o
	if len(q) == 0 || q[0].at > limit {
		return event{}, false
	}
	*o = q[1:]
	return q[0], true
}

// schedDiff drives a scheduler and the oracle with the same operations
// and fails on the first divergence.
type schedDiff struct {
	t      testing.TB
	s      scheduler
	o      schedOracle
	seq    int64
	pushes int64
}

func (d *schedDiff) push(kind eventKind, at int64) {
	// node carries the seq too, so a scheduler that mixed up payloads
	// between two events is caught even when (at, seq) come out right.
	e := event{at: at, seq: d.seq, kind: kind, node: int32(d.seq)}
	d.seq++
	d.pushes++
	d.s.push(&e)
	d.o.push(e)
}

func (d *schedDiff) pop(limit int64) bool {
	d.t.Helper()
	var got event
	ok := d.s.pop(limit, &got)
	want, wantOK := d.o.pop(limit)
	if ok != wantOK {
		d.t.Fatalf("pop(limit %d): scheduler has an event due = %v, oracle = %v", limit, ok, wantOK)
	}
	if ok && got != want {
		d.t.Fatalf("pop(limit %d) = %+v, want %+v", limit, got, want)
	}
	return ok
}

// finish drains both sides and checks the counters add up.
func (d *schedDiff) finish() {
	d.t.Helper()
	for d.pop(math.MaxInt64) {
	}
	if d.s.pending != 0 {
		d.t.Fatalf("pending = %d after draining, want 0", d.s.pending)
	}
	if got := d.s.lanePushes + d.s.heapPushes + d.s.laneFallbacks; got != d.pushes {
		d.t.Fatalf("lanePushes %d + heapPushes %d + laneFallbacks %d = %d, want %d pushes",
			d.s.lanePushes, d.s.heapPushes, d.s.laneFallbacks, got, d.pushes)
	}
	if int64(d.s.maxPending) > d.pushes {
		d.t.Fatalf("maxPending %d exceeds the %d pushes made", d.s.maxPending, d.pushes)
	}
}

// runSchedOps interprets data as a scheduler workload, two bytes per
// operation. The first byte picks pop (low three bits all set) or the
// kind to push; its top bit picks the push's clock: a cursor that only
// moves forward (what the engine does — lane kinds stay in their lanes)
// or an absolute time in a 64-tick window (decreasing times on lane
// kinds, which must fall back to the heap, and ties across every lane).
func runSchedOps(t testing.TB, data []byte) *schedDiff {
	d := &schedDiff{t: t}
	var cursor int64
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], int64(data[i+1])
		if a&7 == 7 {
			limit := int64(math.MaxInt64)
			if a&8 != 0 {
				limit = b // often below the minimum: pop must refuse
			}
			d.pop(limit)
			continue
		}
		at := b & 63
		if a&0x80 == 0 {
			cursor += b & 3
			at = cursor
		}
		d.push(eventKind(a&7), at)
	}
	d.finish()
	return d
}

func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 7, 0, 7, 0})                 // in-order lane pushes, ties
	f.Add([]byte{0x80, 50, 0x80, 10, 0x81, 10, 15, 5, 7, 0})    // decreasing at on a lane kind
	f.Add([]byte{0x80, 9, 0x81, 9, 0x82, 9, 0x85, 9, 0x83, 9})  // one instant across lanes and heap
	f.Add([]byte{5, 3, 0, 0, 7, 0, 0x80, 0, 6, 1, 15, 2, 4, 0}) // timers, calls, limited pops
	f.Fuzz(func(t *testing.T, data []byte) { runSchedOps(t, data) })
}

// TestSchedulerOrderRandom is the fuzz target on seeded random
// workloads long enough to wrap and grow the rings.
func TestSchedulerOrderRandom(t *testing.T) {
	var lane, heap, fallback int64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4000)
		rng.Read(data)
		d := runSchedOps(t, data)
		lane += d.s.lanePushes
		heap += d.s.heapPushes
		fallback += d.s.laneFallbacks
	}
	if lane == 0 || heap == 0 || fallback == 0 {
		t.Fatalf("lane pushes %d, heap pushes %d, lane fallbacks %d: the workloads must exercise all three", lane, heap, fallback)
	}
}

// TestSchedulerLaneFallback pins where events are stored: a lane kind
// joins its lane while its times do not decrease and takes the heap —
// counted as a fallback — when they do; kinds without a lane always take
// the heap.
func TestSchedulerLaneFallback(t *testing.T) {
	d := &schedDiff{t: t}
	d.push(evArrive, 10)
	d.push(evArrive, 10) // equal: still monotone
	d.push(evArrive, 12)
	if d.s.lanePushes != 3 || d.s.heapPushes != 0 || d.s.laneFallbacks != 0 {
		t.Fatalf("monotone arrivals: lane %d heap %d fallback %d, want 3/0/0", d.s.lanePushes, d.s.heapPushes, d.s.laneFallbacks)
	}
	d.push(evArrive, 11) // below the lane's tail
	d.push(evTimer, 20)  // no lane
	if d.s.lanePushes != 3 || d.s.heapPushes != 1 || d.s.laneFallbacks != 1 {
		t.Fatalf("after a decreasing arrival and a timer: lane %d heap %d fallback %d, want 3/1/1", d.s.lanePushes, d.s.heapPushes, d.s.laneFallbacks)
	}
	// Ties across lanes and the heap resolve by seq.
	d.push(evTxDone, 12)
	d.push(evPFC, 12)
	d.push(evCall, 12)
	if d.s.maxPending != 8 {
		t.Fatalf("maxPending = %d, want 8", d.s.maxPending)
	}
	d.finish()
	// An emptied lane accepts any time again.
	d.push(evArrive, 5)
	if d.s.lanePushes != 6 || d.s.laneFallbacks != 1 {
		t.Fatalf("push into an emptied lane went to the heap (lane pushes %d, fallbacks %d, want 6/1)", d.s.lanePushes, d.s.laneFallbacks)
	}
	d.finish()
}

// TestLaneGrowsWrapped grows a ring whose contents wrap around the end
// of the buffer: the unwrapped copy must keep FIFO order.
func TestLaneGrowsWrapped(t *testing.T) {
	d := &schedDiff{t: t}
	at := int64(0)
	for i := 0; i < laneMinCap; i++ {
		d.push(evTxDone, at)
		at++
	}
	for i := 0; i < laneMinCap/2; i++ {
		d.pop(math.MaxInt64)
	}
	for i := 0; i < 3*laneMinCap; i++ { // wraps, then doubles twice
		d.push(evTxDone, at)
		at++
	}
	if got := len(d.s.lanes[evTxDone].buf); got != 4*laneMinCap {
		t.Fatalf("ring size %d, want %d", got, 4*laneMinCap)
	}
	d.finish()
}

// TestEngineStats checks the engine's self-counters on a PFC-heavy run,
// and with them the premise the lanes rest on: every evArrive, evTxDone
// and evPFC the engine schedules is in order for its lane, so the heap
// only ever sees the kinds that have none (TestLaneFallbacksZero holds
// the figure and detect-matrix scenarios to the same).
func TestEngineStats(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	n.EnableDCQCN(DefaultDCQCN()) // timers and CNPs
	n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1"), Start: time.Millisecond})
	n.At(2*time.Millisecond, func() {})
	n.Run(5 * time.Millisecond)

	st := n.EngineStats()
	for kind, got := range map[string]int64{
		"arrive": st.Arrive, "txDone": st.TxDone, "pfc": st.PFC, "flowKick": st.FlowKick,
		"call": st.Call, "timer": st.Timer, "cnp": st.CNP,
	} {
		if got == 0 {
			t.Errorf("no %s event dispatched: %+v", kind, st)
		}
	}
	if got, want := st.Events(), n.seq-int64(n.events.pending); got != want {
		t.Errorf("Events() = %d, want %d (scheduled minus pending)", got, want)
	}
	if got, want := st.LanePushes+st.HeapPushes+st.LaneFallbacks, n.seq; got != want {
		t.Errorf("lane %d + heap %d + fallback %d pushes = %d, want %d schedule calls",
			st.LanePushes, st.HeapPushes, st.LaneFallbacks, got, want)
	}
	if st.LaneFallbacks != 0 {
		t.Errorf("%d lane-kind events took the heap, want 0", st.LaneFallbacks)
	}
	laneless := st.FlowKick + st.Call + st.Timer + st.CNP + int64(len(n.events.heap))
	if st.HeapPushes != laneless {
		t.Errorf("heap pushes = %d, want %d: the kinds without a lane, dispatched or pending", st.HeapPushes, laneless)
	}
	if st.MaxPacketsLive < n.pkts.live() || st.MaxPacketsLive == 0 || st.MaxPacketsLive > len(n.pkts.slots) {
		t.Errorf("MaxPacketsLive = %d with %d live now in a slab of %d", st.MaxPacketsLive, n.pkts.live(), len(n.pkts.slots))
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if st.MaxPending < n.events.pending || st.MaxPending == 0 {
		t.Errorf("MaxPending = %d with %d pending now", st.MaxPending, n.events.pending)
	}
}
