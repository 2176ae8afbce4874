package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// labelKey joins label values with a separator that cannot appear in
// well-formed values; collisions would only merge two metric children,
// never corrupt state.
const labelSep = "\x1f"

func labelKey(values []string) string { return strings.Join(values, labelSep) }

// CounterVec is a family of Counters distinguished by label values —
// e.g. requests partitioned by (path, code). Children are created on
// first use and live forever (label cardinality must be bounded by the
// caller).
type CounterVec struct {
	labels []string

	mu   sync.RWMutex
	kids map[string]*counterChild
}

type counterChild struct {
	values []string
	c      Counter
}

// NewCounterVec builds an unregistered family; prefer
// Registry.NewCounterVec, which also exports it.
func NewCounterVec(labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{labels: append([]string(nil), labels...), kids: make(map[string]*counterChild)}
}

// With returns the child counter for the given label values, creating it
// on first use. It panics if the number of values does not match the
// declared labels.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec got %d label values, want %d", len(values), len(v.labels)))
	}
	key := labelKey(values)
	v.mu.RLock()
	ch := v.kids[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.kids[key]; ch == nil {
			ch = &counterChild{values: append([]string(nil), values...)}
			v.kids[key] = ch
		}
		v.mu.Unlock()
	}
	return &ch.c
}

// Sum returns the total across all children — e.g. total requests
// regardless of endpoint or status.
func (v *CounterVec) Sum() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var n uint64
	for _, ch := range v.kids {
		n += ch.c.Value()
	}
	return n
}

// children returns the child list sorted by label key for deterministic
// exposition output.
func (v *CounterVec) children() []*counterChild {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*counterChild, len(keys))
	for i, k := range keys {
		out[i] = v.kids[k]
	}
	return out
}

// GaugeVec is a family of Gauges distinguished by label values — e.g. a
// router's per-shard availability. Children are created on first use and
// live forever.
type GaugeVec struct {
	labels []string

	mu   sync.RWMutex
	kids map[string]*gaugeChild
}

type gaugeChild struct {
	values []string
	g      Gauge
}

// NewGaugeVec builds an unregistered family; prefer Registry.NewGaugeVec,
// which also exports it.
func NewGaugeVec(labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{labels: append([]string(nil), labels...), kids: make(map[string]*gaugeChild)}
}

// With returns the child gauge for the given label values, creating it on
// first use. It panics if the number of values does not match the
// declared labels.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: GaugeVec got %d label values, want %d", len(values), len(v.labels)))
	}
	key := labelKey(values)
	v.mu.RLock()
	ch := v.kids[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.kids[key]; ch == nil {
			ch = &gaugeChild{values: append([]string(nil), values...)}
			v.kids[key] = ch
		}
		v.mu.Unlock()
	}
	return &ch.g
}

func (v *GaugeVec) children() []*gaugeChild {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*gaugeChild, len(keys))
	for i, k := range keys {
		out[i] = v.kids[k]
	}
	return out
}

// HistogramVec is a family of Histograms sharing one bucket layout,
// distinguished by label values — e.g. latency partitioned by path.
type HistogramVec struct {
	labels []string
	bounds []float64

	mu   sync.RWMutex
	kids map[string]*histChild
}

type histChild struct {
	values []string
	h      *Histogram
}

// NewHistogramVec builds an unregistered family; prefer
// Registry.NewHistogramVec.
func NewHistogramVec(bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	// Validate the layout once, up front.
	probe := NewHistogram(bounds)
	return &HistogramVec{
		labels: append([]string(nil), labels...),
		bounds: probe.bounds,
		kids:   make(map[string]*histChild),
	}
}

// With returns the child histogram for the given label values, creating
// it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: HistogramVec got %d label values, want %d", len(values), len(v.labels)))
	}
	key := labelKey(values)
	v.mu.RLock()
	ch := v.kids[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.kids[key]; ch == nil {
			ch = &histChild{values: append([]string(nil), values...), h: NewHistogram(v.bounds)}
			v.kids[key] = ch
		}
		v.mu.Unlock()
	}
	return ch.h
}

func (v *HistogramVec) children() []*histChild {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*histChild, len(keys))
	for i, k := range keys {
		out[i] = v.kids[k]
	}
	return out
}
