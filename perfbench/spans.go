package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is the index of the span that caused it, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the log's epoch
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps a run's spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its index.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: start.Sub(l.epoch), End: end.Sub(l.epoch)})
	return len(l.spans) - 1
}

// begin opens a span; end closes it. Children may be added in between.
func (l *spanLog) begin(name string, parent int) int {
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) end(i int) {
	now := time.Now()
	l.mu.Lock()
	l.spans[i].End = now.Sub(l.epoch)
	l.mu.Unlock()
}

// get returns span i.
func (l *spanLog) get(i int) span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[i]
}

// selfTime is span i's duration minus the part of its interval that its
// children cover. Overlapping children are counted once.
func (l *spanLog) selfTime(i int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return selfTime(l.spans, i)
}

func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != i {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	slices.SortFunc(kids, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	covered := time.Duration(0)
	var cur iv
	for k, c := range kids {
		switch {
		case k == 0:
			cur = c
		case c.a <= cur.b:
			cur.b = max(cur.b, c.b)
		default:
			covered += cur.b - cur.a
			cur = c
		}
	}
	if len(kids) > 0 {
		covered += cur.b - cur.a
	}
	return p.End - p.Start - covered
}

// write stores the spans as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
