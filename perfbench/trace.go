package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public API call. Spans of one operation share op; parent indexes the
// enclosing span in the same recorder (-1 for an op's root span). A probe
// span times a call made after the operation finished (a separate
// measurement of one layer on the operation's inputs); probes never count
// toward the operation's wall time or its layer split.
type span struct {
	name   string
	layer  string
	op     int
	parent int
	start  time.Duration // since the recorder's epoch
	end    time.Duration
	probe  bool
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps one client's spans in memory. Each client goroutine owns
// its recorder, so recording takes no lock; recorders are merged after
// the timed phase.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	last  int   // the most recently closed span
	// moved holds time the program's own timers attribute to a layer
	// inside a span the benchmark cannot split from outside (the
	// emulation inside Controller.Graph).
	moved []move
}

type move struct {
	op       int
	from, to string
	d        time.Duration
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span nested in the innermost open one. A nil recorder
// (the untraced run) records nothing, so the same operation code runs in
// both runs.
func (r *recorder) begin(op int, layer, name string, probe bool) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, layer: layer, op: op, parent: parent,
		start: time.Since(r.epoch), probe: probe})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open)
	r.last = r.open[n-1]
	r.spans[r.last].end = time.Since(r.epoch)
	r.open = r.open[:n-1]
}

// relabel moves the most recently closed span to another layer, for a
// call whose layer is known only once it returned (a cache hit or miss).
func (r *recorder) relabel(layer string) {
	if r == nil {
		return
	}
	r.spans[r.last].layer = layer
}

// move re-attributes d of an operation's self time from one layer to
// another (see recorder.moved).
func (r *recorder) move(op int, from, to string, d time.Duration) {
	if r == nil || d == 0 {
		return
	}
	r.moved = append(r.moved, move{op: op, from: from, to: to, d: d})
}

// layerSplit is the traced run's per-layer table: for every layer, the
// mean self time per operation, plus the residual (op time outside every
// layer span) and the mean operation wall time. By construction the self
// times plus the residual sum to the wall time.
type layerSplit struct {
	ops      int
	wall     time.Duration            // summed op wall time
	self     map[string]time.Duration // summed self time per layer
	residual time.Duration
	calls    map[string][]time.Duration // op-path span durations by span name
	probes   map[string][]time.Duration // probe durations by span name
}

// split computes the layer table over the recorders' operations.
func split(recs []*recorder) *layerSplit {
	ls := &layerSplit{
		self:   map[string]time.Duration{},
		calls:  map[string][]time.Duration{},
		probes: map[string][]time.Duration{},
	}
	for _, r := range recs {
		child := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.dur()
			}
		}
		for i := range r.spans {
			s := &r.spans[i]
			switch {
			case s.probe:
				ls.probes[s.name] = append(ls.probes[s.name], s.dur())
			case s.parent < 0: // the op's root span
				ls.ops++
				ls.wall += s.dur()
				ls.residual += s.dur() - child[i]
			default:
				ls.self[s.layer] += s.dur() - child[i]
				ls.calls[s.name] = append(ls.calls[s.name], s.dur())
			}
		}
		for _, m := range r.moved {
			ls.self[m.from] -= m.d
			ls.self[m.to] += m.d
		}
	}
	return ls
}

// meanMS is the mean of ds in milliseconds (0 for no samples).
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, one thread per client), which chrome://tracing and Perfetto
// open directly.
func writeChromeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[")
	first := true
	for tid, r := range recs {
		idx := make([]int, len(r.spans))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return r.spans[idx[a]].start < r.spans[idx[b]].start })
		for _, i := range idx {
			s := r.spans[i]
			if !first {
				w.WriteString(",\n")
			}
			first = false
			cat := s.layer
			if s.probe {
				cat = "probe." + cat
			}
			fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				s.name, cat, tid+1, float64(s.start)/1e3, float64(s.dur())/1e3, s.op)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
