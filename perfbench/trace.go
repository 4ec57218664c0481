package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call into the program. Spans of one
// circuit or service job share ID; Parent is the index of the enclosing
// span in the recorder, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps a traced pass's spans in memory; they are written out
// once the run ends. Safe for concurrent use. A nil recorder is an untraced
// pass: begin and end do nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle.
func (r *recorder) begin(name string, id, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(h int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[h].End = now
	return now - r.spans[h].Start
}

// check reports the first malformed span: one left open, a parent that
// does not exist or belongs to another job, or a child outside its parent.
func (r *recorder) check() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) was never ended", i, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d (%s) has no valid parent (%d)", i, s.Name, s.Parent)
		}
		p := r.spans[s.Parent]
		if p.ID != s.ID {
			return fmt.Errorf("span %d (%s) is job %d but its parent %s is job %d", i, s.Name, s.ID, p.Name, p.ID)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %s", i, s.Name, p.Name)
		}
	}
	return nil
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of it that its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]span, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		out[s.Name] += s.End - s.Start - covered(children[i])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start < spans[k].Start })
	var total time.Duration
	var lo, hi time.Duration = 0, -1
	for _, s := range spans {
		if s.Start > hi {
			if hi >= lo {
				total += hi - lo
			}
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	if hi >= lo {
		total += hi - lo
	}
	return total
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
