package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one benchmark-side timing record of a traced run. Spans are
// taken from outside the program, around calls into each layer's public
// functions; nothing inside the program is touched. Request ties the
// spans of one replayed request together across passes.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Request int    `json:"request"` // -1 when not tied to one request
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory and writes them when the run ends. It is
// used from one goroutine at a time.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(name string, parent, request int) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans), Parent: parent, Name: name, Request: request,
		StartNS: int64(time.Since(l.t0)),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) time.Duration {
	l.spans[id].EndNS = int64(time.Since(l.t0))
	return time.Duration(l.spans[id].EndNS - l.spans[id].StartNS)
}

// timeCall records fn as a child span and returns its duration.
func (l *spanLog) timeCall(name string, parent, request int, fn func()) time.Duration {
	id := l.start(name, parent, request)
	fn()
	return l.end(id)
}

// durationsUS returns every finished span of that name, in microseconds,
// ascending.
func (l *spanLog) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// p50US is the median duration of the named span, 0 when there is none.
func (l *spanLog) p50US(name string) float64 {
	d := l.durationsUS(name)
	if len(d) == 0 {
		return 0
	}
	return percentile(d, 0.5)
}

// selfTimes returns, per span name, total duration minus the part
// covered by child spans.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 && s.EndNS > 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range l.spans {
		if s.EndNS > 0 {
			out[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
