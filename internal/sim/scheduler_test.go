package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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
	if got := d.s.lanePushes + d.s.heapPushes; got != d.pushes {
		d.t.Fatalf("lanePushes %d + heapPushes %d = %d, want %d pushes",
			d.s.lanePushes, d.s.heapPushes, got, d.pushes)
	}
	if int64(d.s.maxPending) > d.pushes {
		d.t.Fatalf("maxPending %d exceeds the %d pushes made", d.s.maxPending, d.pushes)
	}
}

// runSchedOps interprets data as a scheduler workload, two bytes per
// operation. The first byte picks pop (low three bits all set) or the
// kind to push; its top bit picks the push's clock: a cursor that only
// moves forward or an absolute time in a 64-tick window (decreasing
// times, and ties across every lane and the heap). A lane-kind time is
// then raised to its lane's tail, as the engine's clock guarantees, so
// every sequence is one the engine can produce.
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
		kind := eventKind(a & 7)
		if kind < numLanes && d.s.lanes[kind].n > 0 {
			at = max(at, d.s.lanes[kind].last)
		}
		d.push(kind, at)
	}
	d.finish()
	return d
}

func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 7, 0, 7, 0})                 // in-order lane pushes, ties
	f.Add([]byte{0x80, 50, 0x80, 10, 0x81, 10, 15, 5, 7, 0})    // decreasing at on a lane kind, raised to its tail
	f.Add([]byte{0x80, 9, 0x81, 9, 0x82, 9, 0x85, 9, 0x83, 9})  // one instant across lanes and heap
	f.Add([]byte{5, 3, 0, 0, 7, 0, 0x80, 0, 6, 1, 15, 2, 4, 0}) // timers, calls, limited pops
	f.Fuzz(func(t *testing.T, data []byte) { runSchedOps(t, data) })
}

// TestSchedulerOrderRandom is the fuzz target on seeded random
// workloads long enough to wrap and grow the rings.
func TestSchedulerOrderRandom(t *testing.T) {
	var lane, heap int64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4000)
		rng.Read(data)
		d := runSchedOps(t, data)
		lane += d.s.lanePushes
		heap += d.s.heapPushes
	}
	if lane == 0 || heap == 0 {
		t.Fatalf("lane pushes %d, heap pushes %d: the workloads must exercise both", lane, heap)
	}
}

// TestSchedulerLaneOrder pins the lanes' invariant: a lane kind whose
// time falls behind its lane's tail panics, naming the invariant, and
// leaves the other lanes and the heap alone; ties across the lanes and
// the heap pop by seq; and an emptied lane accepts any time again.
func TestSchedulerLaneOrder(t *testing.T) {
	for kind := eventKind(0); kind < numLanes; kind++ {
		var s scheduler
		s.reserve(kind, 10, 0)
		s.reserve(kind, 10, 1) // equal: still in order
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "time order") {
					t.Errorf("%s behind its lane's tail recovered %v, want a panic naming the order", laneNames[kind], r)
				}
			}()
			s.reserve(kind, 9, 2)
		}()
		s.reserve((kind+1)%numLanes, 9, 3) // another lane
		s.reserve(evTimer, 1, 4)           // the heap
	}

	d := &schedDiff{t: t}
	for _, kind := range []eventKind{evArrive, evTimer, evTxDone, evPFC, evCall, evArrive, evCNP, evFlowKick} {
		d.push(kind, 12)
	}
	if d.s.lanePushes != 4 || d.s.heapPushes != 4 || d.s.maxPending != 8 {
		t.Fatalf("lane %d heap %d maxPending %d, want 4/4/8", d.s.lanePushes, d.s.heapPushes, d.s.maxPending)
	}
	d.finish() // pops against the oracle: seq order within the instant
	d.push(evArrive, 5)
	d.push(evArrive, 6)
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

// TestEngineStats checks the engine's self-counters on a PFC-heavy run:
// every kind dispatched, every schedule call counted once, and the heap
// holding only the kinds without a lane.
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
	if got, want := st.LanePushes+st.HeapPushes, n.seq; got != want {
		t.Errorf("lane %d + heap %d pushes = %d, want %d schedule calls",
			st.LanePushes, st.HeapPushes, got, want)
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
