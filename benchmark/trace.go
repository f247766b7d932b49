package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around its calls into each layer; spans inside
// the program are ROADMAP item 1, a later change.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request string `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the load generator has one code path for traced and untraced
// rounds.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, request, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Layer: layer, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(parent int, request, layer, name string, start time.Time) int {
	return t.add(parent, request, layer, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
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
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerSelfMS sums self time by layer, in milliseconds, over the spans whose
// root has the given name ("job" or "probe").
func layerSelfMS(spans []span, rootName string) map[string]float64 {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if rootOf(s).Name == rootName {
			out[s.Layer] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}
