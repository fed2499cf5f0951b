package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the harness side of
// the call. Lanes is how many execution lanes the call occupies while it
// runs: 1 for a call on one goroutine, the fan-out width for a call that
// waits on a worker pool. Self time is measured in lane-seconds, so a
// parent's self time is its lane-time minus the lane-time its children
// cover, and the self times of a phase add up to width × wall.
type span struct {
	Name   string
	Parent int // index into tracer.spans, -1 for a root span
	Lanes  int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory for one traced phase. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, lanes int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Lanes: lanes, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-finished span with absolute start and end times
// (used for phases read back from event timestamps).
func (t *tracer) record(name string, parent, lanes int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Lanes: lanes, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// durations returns the durations of every closed span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// ledger is the per-workload time account of a traced phase: each layer's
// self time in lane-seconds, and what no span explains.
type ledger struct {
	WallS      float64            `json:"wall_s"`
	Lanes      int                `json:"lanes"`
	SelfS      map[string]float64 `json:"self_s"`
	RemainderS float64            `json:"remainder_s"`
	// OverheadRatio is the traced phase's time per operation divided by
	// the untraced phase's, over the same kind of work.
	OverheadRatio float64 `json:"overhead_ratio"`
}

// ledger computes self time per layer (the span name up to its first dot)
// over a phase of the given wall time and lane count.
func (t *tracer) ledger(wall time.Duration, lanes int) *ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	laneTime := func(s span) float64 { return float64(s.Lanes) * (s.End - s.Start).Seconds() }
	self := make([]float64, len(t.spans))
	var roots float64
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[i] += laneTime(s)
		if s.Parent >= 0 {
			self[s.Parent] -= laneTime(s)
		} else {
			roots += laneTime(s)
		}
	}
	l := &ledger{WallS: wall.Seconds(), Lanes: lanes, SelfS: map[string]float64{}}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		l.SelfS[layer] += self[i]
	}
	l.RemainderS = float64(lanes)*wall.Seconds() - roots
	return l
}

func (l *ledger) print(w io.Writer, workload string) {
	layers := make([]string, 0, len(l.SelfS))
	var sum float64
	for k, v := range l.SelfS {
		layers = append(layers, k)
		sum += v
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "ledger %s: wall %.3f s x %d lanes = %.3f lane-s; layer self %.3f lane-s; remainder %.3f lane-s; tracing overhead x%.4f\n",
		workload, l.WallS, l.Lanes, l.WallS*float64(l.Lanes), sum, l.RemainderS, l.OverheadRatio)
	for _, k := range layers {
		fmt.Fprintf(w, "ledger %s:   %-10s self %9.3f lane-s (%5.1f%%)\n", workload, k, l.SelfS[k], 100*l.SelfS[k]/(l.WallS*float64(l.Lanes)))
	}
}
