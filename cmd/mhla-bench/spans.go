package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval of a traced operation. Times are
// nanoseconds since the recorder's epoch; Parent is 0 for a root span.
// Spans of one operation share RequestID.
type span struct {
	Name      string         `json:"name"`
	ID        int            `json:"id"`
	Parent    int            `json:"parent"`
	RequestID int            `json:"request_id"`
	StartNS   int64          `json:"start_ns"`
	EndNS     int64          `json:"end_ns"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run ends; it is safe for
// concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (IDs start at 1).
func (r *recorder) add(name string, parent, requestID int, start, end time.Time, attrs map[string]any) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Name:      name,
		ID:        id,
		Parent:    parent,
		RequestID: requestID,
		StartNS:   start.Sub(r.epoch).Nanoseconds(),
		EndNS:     end.Sub(r.epoch).Nanoseconds(),
		Attrs:     attrs,
	})
	return id
}

// all returns a copy of the recorded spans in recording order.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.all())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// childrenOf indexes spans by parent ID.
func childrenOf(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered returns how much of [lo, hi) the union of the intervals
// covers. Intervals may overlap, nest, arrive in any order and stick
// out of [lo, hi); only the part inside counts, and only once.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range intervals {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if s < e {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		s := max(iv[0], end)
		if iv[1] > s {
			total += iv[1] - s
			end = iv[1]
		}
	}
	return total
}

// selfTime is the span's duration minus the part of its interval that
// its children cover.
func selfTime(s span, children []span) time.Duration {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.StartNS, c.EndNS}
	}
	return s.dur() - time.Duration(covered(s.StartNS, s.EndNS, ivs))
}
