package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one op share Op; Parent is the ID of the
// span that made the call (0 for an op's root span, which also names the
// op's class). Counts carries the work the call did, measured at the same
// boundary.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	Class   string             `json:"class,omitempty"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the benchmark ends. It is used from
// one goroutine: the traced pass runs its ops one at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent, op int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: int64(time.Since(t.epoch))})
	return id
}

// end closes span id and attaches its counts.
func (t *tracer) end(id int, counts map[string]float64) {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.epoch))
	s.Counts = counts
}

// call records f as a child span of parent. The counts f returns are kept
// even when it fails.
func (t *tracer) call(parent, op int, name string, f func() (map[string]float64, error)) error {
	id := t.begin(parent, op, name)
	counts, err := f()
	t.end(id, counts)
	return err
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its child spans cover (overlapping children are counted
// once; a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
