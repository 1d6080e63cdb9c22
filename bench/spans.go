package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one client
// operation share Op; Parent is the span that caused this one (0 = root).
// Start and End are offsets from the tracer's epoch.
type span struct {
	ID, Parent int32
	Op         int64
	Layer      string // module the interval is charged to
	Name       string
	Site       int // store / cluster member the span ran on (-1 = client)
	Start, End time.Duration
	Bytes      int64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil tracer is
// the untraced run: every method is a no-op, so call sites need no
// branches of their own.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(layer, name string, site int, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Site: site, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id, recording the bytes it moved.
func (t *tracer) end(id int32, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

// snapshot returns the closed spans; ones still open when the run ended
// (there should be none) are dropped.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// spanTree indexes a span set by id and by parent.
type spanTree struct {
	byID     map[int32]*span
	children map[int32][]*span
	roots    []*span
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{byID: make(map[int32]*span, len(spans)), children: make(map[int32][]*span)}
	for i := range spans {
		t.byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 || t.byID[s.Parent] == nil {
			t.roots = append(t.roots, s)
			continue
		}
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	for _, c := range t.children {
		sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
	}
	return t
}

// covered returns how much of s its children cover: the length of the
// union of their intervals clipped to s, so parallel children (peer legs
// of one scatter) are not counted twice.
func (t *spanTree) covered(s *span) time.Duration {
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, c := range t.children[s.ID] { // sorted by start
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b <= a {
			continue
		}
		if cur < 0 || a > curEnd {
			if cur >= 0 {
				total += curEnd - cur
			}
			cur, curEnd = a, b
		} else if b > curEnd {
			curEnd = b
		}
	}
	if cur >= 0 {
		total += curEnd - cur
	}
	return total
}

// self is the span's duration minus the part its children cover.
func (t *spanTree) self(s *span) time.Duration { return s.dur() - t.covered(s) }

// blockingSelf sums self times down the blocking path under s: where
// children overlap (a scatter's parallel legs) only the one that ends
// last, which the parent actually waited for, is followed. For a
// correctly nested trace this adds up to the root's duration less the
// slack of the faster parallel legs; the coverage check compares the two.
func (t *spanTree) blockingSelf(s *span) time.Duration {
	total := t.self(s)
	kids := t.children[s.ID]
	for i := 0; i < len(kids); {
		last, groupEnd := kids[i], kids[i].End
		j := i + 1
		for j < len(kids) && kids[j].Start < groupEnd {
			if kids[j].End > groupEnd {
				groupEnd, last = kids[j].End, kids[j]
			}
			j++
		}
		total += t.blockingSelf(last)
		i = j
	}
	return total
}

// adoptOrphans gives each parentless non-root span (the WAL wrapper
// cannot see which request called it) the span it ran inside: the
// latest-started candidate on the same site that contains it. Two
// ingests in flight on one store can both contain a WAL append, so a
// single op's WAL child may be its neighbour's; layer totals, which is
// what the metrics use, are unaffected.
func adoptOrphans(spans []span, orphan, candidate func(*span) bool) {
	bySite := map[int][]*span{}
	for i := range spans {
		if candidate(&spans[i]) {
			bySite[spans[i].Site] = append(bySite[spans[i].Site], &spans[i])
		}
	}
	for _, c := range bySite {
		sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || !orphan(s) {
			continue
		}
		c := bySite[s.Site]
		// Candidates starting after s cannot contain it.
		k := sort.Search(len(c), func(i int) bool { return c[i].Start > s.Start })
		for k--; k >= 0; k-- {
			if c[k].End >= s.End {
				s.Parent, s.Op = c[k].ID, c[k].Op
				break
			}
		}
	}
}

// maxTraceSpans bounds the Chrome-trace file; the metrics use every
// span, the file keeps the first ones.
const maxTraceSpans = 60000

// writeChromeTrace writes spans in the Chrome trace-event JSON format
// (load in chrome://tracing or ui.perfetto.dev): one complete event per
// span, one process per site, one thread per operation.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","truncated":%v,"traceEvents":[`, len(spans) > maxTraceSpans)
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.Name)
		fmt.Fprintf(w, "\n"+`{"name":%s,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d,"op":%d,"bytes":%d}}`,
			name, s.Layer, float64(s.Start)/1e3, float64(s.dur())/1e3, s.Site+1, s.Op, s.ID, s.Parent, s.Op, s.Bytes)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
