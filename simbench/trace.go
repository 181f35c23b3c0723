package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one host-time interval recorded by the traced run around a call
// into a layer. Spans of one point share ID; Parent names the enclosing
// span ("" for a root).
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Label   string  `json:"label"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(id int, name, parent, label string, start, end time.Time) {
	l.spans = append(l.spans, span{
		ID: id, Name: name, Parent: parent, Label: label,
		StartMs: ms(start.Sub(l.origin)), EndMs: ms(end.Sub(l.origin)),
	})
}

// addPoint records a point's span, named after the layer call it made,
// and its three phase children.
func (l *spanLog) addPoint(id int, r *pointRun) {
	l.add(id, r.call, "", r.name, r.start, r.end)
	l.add(id, "point.setup", r.call, r.name, r.start, r.observed)
	l.add(id, "point.populate", r.call, r.name, r.observed, r.first)
	l.add(id, "point.simulate", r.call, r.name, r.first, r.end)
}

// selfMs returns the self time of each span name (parent/name for a
// child), summed over its spans: a span's duration minus the part its
// children cover. Children of one span never overlap.
func (l *spanLog) selfMs() map[string]float64 {
	type key struct {
		id   int
		name string
	}
	children := map[key]float64{}
	for _, s := range l.spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.EndMs - s.StartMs
		}
	}
	self := map[string]float64{}
	for _, s := range l.spans {
		name := s.Name
		if s.Parent != "" {
			name = s.Parent + "/" + s.Name
		}
		self[name] += s.EndMs - s.StartMs - children[key{s.ID, s.Name}]
	}
	return self
}

// traceFile is the traced run's output document.
type traceFile struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	UntracedWallS float64            `json:"untraced_wall_s"`
	TracedWallS   float64            `json:"traced_wall_s"`
	Overhead      float64            `json:"overhead"`
	SelfMs        map[string]float64 `json:"self_ms"`
	Spans         []span             `json:"spans"`
}

// write stores the trace document at path, creating its directory.
func (l *spanLog) write(path string, doc traceFile) error {
	doc.SelfMs = l.selfMs()
	doc.Spans = l.spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
