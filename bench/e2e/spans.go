package main

import (
	"slices"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was made. Parent is the enclosing span's ID, -1 for
// the root span of an operation; all spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine. A nil recorder records nothing, so workload code calls it
// unconditionally and the untraced run pays one nil check per call.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span times fn as a child of the innermost open span.
func (r *recorder) span(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.open(name)
	fn()
	r.close(id)
}

// op times fn as the root span of a new operation of the given kind
// ("setup", "gate", "op", "staged", "reconcile").
func (r *recorder) op(kind string, fn func() error) error {
	if r == nil {
		return fn()
	}
	r.ops++
	id := r.open(kind)
	err := fn()
	r.close(id)
	return err
}

func (r *recorder) open(name string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.ops, Name: name,
		Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) close(id int) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// spanStat summarises every span of one name. PerOpMs holds, for each
// operation that has spans of this name, their summed duration: a layer
// called three times in one operation (core.verify) counts once, at its
// total.
type spanStat struct {
	Name     string    `json:"name"`
	Count    int       `json:"count"`
	TotalMs  float64   `json:"total_ms"`
	SelfMs   float64   `json:"self_ms"`
	MedianMs float64   `json:"median_per_op_ms"`
	PerOpMs  []float64 `json:"-"`
}

// stats folds the spans by name. A span's self time is its duration
// minus the durations of its direct children.
func (r *recorder) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if r == nil {
		return out
	}
	childNs := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		op   int
	}
	perOp := map[key]float64{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-childNs[s.ID]) / 1e6
		perOp[key{s.Name, s.Op}] += float64(d) / 1e6
	}
	keys := make([]key, 0, len(perOp))
	for k := range perOp {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].op < keys[j].op })
	for _, k := range keys {
		out[k.name].PerOpMs = append(out[k.name].PerOpMs, perOp[k])
	}
	for _, st := range out {
		st.MedianMs = median(st.PerOpMs)
	}
	return out
}

// coverage is the share of the root spans of the given kinds that their
// direct children account for, in percent; 0 when there is none.
func (r *recorder) coverage(kinds ...string) float64 {
	if r == nil {
		return 0
	}
	var root, children int64
	isRoot := make([]bool, len(r.spans))
	for _, s := range r.spans {
		if s.Parent < 0 && slices.Contains(kinds, s.Name) {
			isRoot[s.ID] = true
			root += s.End - s.Start
		} else if s.Parent >= 0 && isRoot[s.Parent] {
			children += s.End - s.Start
		}
	}
	if root == 0 {
		return 0
	}
	return 100 * float64(children) / float64(root)
}
