package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (the program itself has no spans yet).
// Spans of one replayed operation share Op; Parent is the index of the
// span that caused this one, -1 for an operation's root.
//
// A Shadow span was not recorded around a call of its own inside the
// parent's interval. It is either the inner layer's call repeated on the
// same input right after the parent call — the only way to split an outer
// call (Engine.Detect) from the call it makes internally
// (Snapshot.DetectWith) from outside the program — or time summed inside
// the parent through a callback the benchmark passed in. Only its duration
// is meaningful; its Start is placed at the parent's start so the file
// still reads as a tree.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op_id"`
	Shadow  bool   `json:"shadow,omitempty"`
}

// recorder keeps spans in memory until write. A nil recorder records
// nothing, which is how the untraced replay (the base of
// trace.overhead_ratio) runs the identical code path.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNS: int64(time.Since(r.t0)),
		Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = int64(time.Since(r.t0))
}

// call times fn as a span under parent.
func (r *recorder) call(name string, parent, op int, fn func()) int {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
	return id
}

// shadow times fn — the parent's inner call repeated on the same input —
// and attaches it under parent as a shadow span.
func (r *recorder) shadow(name string, parent, op int, fn func()) int {
	t := time.Now()
	fn()
	return r.attach(name, parent, op, time.Since(t))
}

// attach adds a shadow span of known duration under parent: time the
// benchmark measured inside the parent call (through a callback it passed
// in) or on a repeat of the parent's inner call.
func (r *recorder) attach(name string, parent, op int, d time.Duration) int {
	if r == nil {
		return -1
	}
	start := r.spans[parent].StartNS
	r.spans = append(r.spans, span{Name: name, StartNS: start,
		EndNS: start + int64(d), Parent: parent, Op: op, Shadow: true})
	return len(r.spans) - 1
}

// selfTimesUS returns, per span name, every span's self time in µs: its
// duration minus the durations of its direct children. Children of one
// parent never overlap here (the replay is sequential), so subtracting
// durations equals subtracting the covered interval.
func (r *recorder) selfTimesUS() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range r.spans {
		self := s.EndNS - s.StartNS - child[i]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// durationsUS returns every span of the name's full duration in µs.
func (r *recorder) durationsUS(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

// spanUS runs fn n times, each as a root span of its own, and returns the
// median duration in µs — a layer probe that is not part of a replayed
// operation.
func spanUS(r *recorder, name string, n int, fn func()) float64 {
	first := len(r.spans)
	for i := 0; i < n; i++ {
		r.call(name, -1, first+i, fn)
	}
	return median(r.durationsUS(name))
}

// medianSelfUS is the median self time of the named span, 0 when absent.
func medianSelfUS(self map[string][]float64, name string) float64 {
	return median(self[name])
}

// traceFile is the on-disk shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Host     hostInfo           `json:"host"`
	Metrics  map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path string, f traceFile) error {
	f.Spans = r.spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
