package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// maxKept bounds the spans kept for the trace file; self times cover
// every span regardless.
const maxKept = 50000

// span is one timed call into a layer, made by the driver. Spans of one
// event share Event; Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID, Parent int32
	Event      int64
	Name       string
	Start, End time.Duration // since the tracer started
}

// spanTotals accumulates one span name's time.
type spanTotals struct {
	count       int
	total, self time.Duration
}

type openSpan struct {
	id    int32
	name  string
	event int64
	start time.Time
	child time.Duration // time covered by finished child spans
}

// tracer records spans around the driver's calls into each layer. The
// driver is one goroutine, so spans nest strictly and a span's self
// time is its duration minus its children's. A nil *tracer records
// nothing: untraced runs pass nil.
type tracer struct {
	t0     time.Time
	stack  []openSpan
	nextID int32
	totals map[string]*spanTotals
	kept   []span
	lost   int // spans not kept for the file
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*spanTotals)}
}

// begin opens a span named "<layer>.<call>" for event (-1: none).
func (t *tracer) begin(name string, event int64) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, name: name, event: event, start: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now.Sub(top.start)
	parent := int32(0)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	tot := t.totals[top.name]
	if tot == nil {
		tot = &spanTotals{}
		t.totals[top.name] = tot
	}
	tot.count++
	tot.total += dur
	tot.self += dur - top.child
	if len(t.kept) < maxKept {
		t.kept = append(t.kept, span{
			ID: top.id, Parent: parent, Event: top.event, Name: top.name,
			Start: top.start.Sub(t.t0), End: now.Sub(t.t0),
		})
	} else {
		t.lost++
	}
}

// setEvent names the event of the innermost open span, for spans whose
// event is known only once the call returns (a Pop).
func (t *tracer) setEvent(event int64) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.stack[len(t.stack)-1].event = event
}

// layerSelf sums self time per layer (the span name up to its first
// dot).
func (t *tracer) layerSelf() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, tot := range t.totals {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += tot.self
	}
	return out
}

// print writes one line per span name: count, total and self time.
func (t *tracer) print(w *bufio.Writer) {
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tot := t.totals[n]
		fmt.Fprintf(w, "span %-24s count=%-8d total_ms=%-12.3f self_ms=%.3f\n",
			n, tot.count, millis(tot.total), millis(tot.self))
	}
}

// write stores the kept spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.kept {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"event":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Event, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
