package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names. The client and the handler wrappers record the first four
// around calls into the program; the rest are derived from the timings a
// /v1/fill response reports (stats.queue_wait_ms, run_ms, stages).
const (
	spanClientFill   = "client.fill"
	spanClientMutate = "client.mutate"
	spanRouter       = "router.handler"
	spanServe        = "serve.handler"
	spanMutate       = "tablestore.mutate_handler"
	spanQueue        = "serve.queue_wait"
	spanRun          = "thor.run"
	spanStagePrefix  = "thor.stage."
)

// span is one timed interval of one request. All spans of a request share
// Trace, the trace ID the client sent as traceparent.
type span struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanLog collects spans in memory during a traced phase. Times are
// milliseconds since the log was created.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) ms(t time.Time) float64 {
	return float64(t.Sub(l.t0)) / float64(time.Millisecond)
}

// record stores one measured span; parents are resolved after the phase
// (see buildTrees), since the client and the wrappers record concurrently.
func (l *spanLog) record(trace, name string, start, end time.Time) {
	s := span{Trace: trace, Name: name, Start: l.ms(start), End: l.ms(end)}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// reqTree is one request's spans with parents resolved: the client span,
// the router span when the request went through the router, every serve
// (or mutate) handler span, and the children derived from the response.
type reqTree struct {
	client   span
	router   *span
	handlers []span
	derived  []span
}

// answering is the handler span that produced the response: the one that
// ended last (a retried or hedged call ends earlier or loses).
func (t *reqTree) answering() *span {
	var best *span
	for i := range t.handlers {
		if best == nil || t.handlers[i].End > best.End {
			best = &t.handlers[i]
		}
	}
	return best
}

// outermost is the span directly under the client span.
func (t *reqTree) outermost() *span {
	if t.router != nil {
		return t.router
	}
	return t.answering()
}

// fillTimings is what a /v1/fill response reports about its own execution.
type fillTimings struct {
	queueMS float64
	runMS   float64
	stages  []stageTiming
}

type stageTiming struct {
	name string
	ms   float64
}

// buildTrees groups the recorded spans by trace, links each to its parent by
// layer (client → router → handler → derived), derives the queue, run and
// stage spans from timings (keyed by trace), and numbers every span.
// Derived spans are laid back to back from their parent's start and clipped
// to it: only their durations are measured, so their placement inside the
// parent is nominal and does not change any self time.
func buildTrees(spans []span, timings map[string]fillTimings) []*reqTree {
	byTrace := map[string]*reqTree{}
	var order []string
	for _, s := range spans {
		t := byTrace[s.Trace]
		if t == nil {
			t = &reqTree{}
			byTrace[s.Trace] = t
			order = append(order, s.Trace)
		}
		switch s.Name {
		case spanClientFill, spanClientMutate:
			t.client = s
		case spanRouter:
			r := s
			t.router = &r
		default:
			t.handlers = append(t.handlers, s)
		}
	}
	sort.Strings(order)
	out := make([]*reqTree, 0, len(order))
	next := 1
	for _, trace := range order {
		t := byTrace[trace]
		if t.client.Name == "" || len(t.handlers) == 0 {
			continue // an unanswered request: no tree to attribute
		}
		t.client.ID = next
		next++
		parent := t.client.ID
		if t.router != nil {
			t.router.ID, t.router.Parent = next, parent
			next++
			parent = t.router.ID
		}
		for i := range t.handlers {
			t.handlers[i].ID, t.handlers[i].Parent = next, parent
			next++
		}
		if tm, ok := timings[trace]; ok {
			h := t.answering()
			q := clip(span{Trace: trace, Name: spanQueue, Start: h.Start, End: h.Start + tm.queueMS}, *h)
			run := clip(span{Trace: trace, Name: spanRun, Start: q.End, End: q.End + tm.runMS}, *h)
			q.ID, q.Parent = next, h.ID
			run.ID, run.Parent = next+1, h.ID
			next += 2
			t.derived = append(t.derived, q, run)
			at := run.Start
			for _, st := range tm.stages {
				s := clip(span{Trace: trace, Name: spanStagePrefix + st.name, Start: at, End: at + st.ms}, run)
				s.ID, s.Parent = next, run.ID
				next++
				at = s.End
				t.derived = append(t.derived, s)
			}
		}
		out = append(out, t)
	}
	return out
}

// clip confines s to the interval of within.
func clip(s, within span) span {
	if s.Start < within.Start {
		s.Start = within.Start
	}
	if s.End > within.End {
		s.End = within.End
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	return s
}

// selfTime is the part of parent's duration that none of its children
// covers: the span minus the union of its children's intervals (each
// clipped to the parent), so overlapping children are not subtracted twice.
func selfTime(parent span, children []span) float64 {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		c = clip(c, parent)
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	covered := 0.0
	curS, curE := 0.0, 0.0
	for i, c := range iv {
		switch {
		case i == 0:
			curS, curE = c.Start, c.End
		case c.Start > curE:
			covered += curE - curS
			curS, curE = c.Start, c.End
		case c.End > curE:
			curE = c.End
		}
	}
	if len(iv) > 0 {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// children returns the derived spans whose parent is id.
func (t *reqTree) children(id int) []span {
	var out []span
	for _, s := range t.derived {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes every span of the trees as JSON lines to path.
func writeSpans(path string, trees []*reqTree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range trees {
		all := []span{t.client}
		if t.router != nil {
			all = append(all, *t.router)
		}
		all = append(all, t.handlers...)
		all = append(all, t.derived...)
		for _, s := range all {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceparent builds the W3C traceparent header the client sends; the
// serve and router handlers continue the trace it names.
func traceparent(trace string) string {
	return fmt.Sprintf("00-%s-%016x-01", trace, 1)
}

// traceID derives a request's 32-hex trace ID from the run seed and the
// request's sequence number.
func traceID(seed int64, seq uint64) string {
	return fmt.Sprintf("%016x%016x", uint64(seed)|1<<63, seq+1)
}

// traceOf extracts the trace ID from a traceparent header ("" if absent).
func traceOf(h string) string {
	parts := strings.Split(h, "-")
	if len(parts) != 4 {
		return ""
	}
	return parts[1]
}
