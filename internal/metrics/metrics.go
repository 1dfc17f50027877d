// Package metrics is a dependency-free Prometheus-compatible metrics
// registry: counters, gauges, and histograms — plain and labelled —
// rendered in the text exposition format (version 0.0.4) any Prometheus
// scraper understands. It exists so the query service can expose a
// /metrics endpoint without pulling the prometheus client library into a
// module that otherwise has no dependencies.
//
// The write path is lock-free for unlabelled instruments (atomics) and a
// short mutex for labelled lookups; Observe/Inc/Add are safe for
// concurrent use from request handlers and pool workers. Rendering takes
// a point-in-time snapshot; families render in registration order and
// label sets in sorted order, so scrapes are stable and diffable.
//
// Registration is configuration-time programming: invalid or duplicate
// metric names panic at construction rather than surfacing mid-scrape.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative deltas allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets, plus a
// running sum and count — the Prometheus histogram layout, so quantiles
// can be estimated server-side with histogram_quantile().
type Histogram struct {
	bounds  []float64      // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// DefBuckets are the default histogram buckets: latency-shaped, in
// seconds, matching the prometheus client library's defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not strictly ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// vec holds the labelled children of one metric family, keyed by the
// label-value tuple.
type vec[T any] struct {
	mu       sync.Mutex
	labels   []string
	children map[string]*child[T]
	make     func() *T
}

type child[T any] struct {
	values []string
	metric *T
}

func (v *vec[T]) with(values []string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: got %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &child[T]{values: append([]string(nil), values...), metric: v.make()}
		v.children[key] = c
	}
	return c.metric
}

// snapshot returns the children sorted by label values, for stable
// rendering.
func (v *vec[T]) snapshot() []*child[T] {
	v.mu.Lock()
	out := make([]*child[T], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i].values {
			if out[i].values[k] != out[j].values[k] {
				return out[i].values[k] < out[j].values[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a family of Counters partitioned by label values.
type CounterVec struct{ vec[Counter] }

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the declared labels.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// HistogramVec is a family of Histograms partitioned by label values.
type HistogramVec struct {
	vec[Histogram]
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// family is one registered metric family and how to render its samples.
type family struct {
	name, help, typ string
	render          func(w io.Writer)
}

// Registry holds metric families and renders them as one exposition page.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

func (r *Registry) register(name, help, typ string, labels []string, render func(io.Writer)) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.names[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, render: render})
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", nil, func(w io.Writer) {
		writeSample(w, name, nil, nil, float64(c.Value()))
	})
	return c
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — for monotone totals another component already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", nil, func(w io.Writer) {
		writeSample(w, name, nil, nil, fn())
	})
}

// LabeledValue is one sample of a labelled func-backed family: the label
// values (matching the family's label names in order) and the reading.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// CounterVecFunc registers a labelled counter family whose samples are
// read by fn at scrape time — for per-entity monotone totals another
// component already maintains (e.g. per-shard RPC counts held by a
// cluster coordinator).
func (r *Registry) CounterVecFunc(name, help string, labels []string, fn func() []LabeledValue) {
	r.register(name, help, "counter", labels, func(w io.Writer) {
		for _, s := range fn() {
			writeSample(w, name, labels, s.Labels, s.Value)
		}
	})
}

// GaugeVecFunc registers a labelled gauge family whose samples are read
// by fn at scrape time.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func() []LabeledValue) {
	r.register(name, help, "gauge", labels, func(w io.Writer) {
		for _, s := range fn() {
			writeSample(w, name, labels, s.Labels, s.Value)
		}
	})
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec[Counter]{labels: labels, children: map[string]*child[Counter]{}, make: func() *Counter { return &Counter{} }}}
	r.register(name, help, "counter", labels, func(w io.Writer) {
		for _, c := range v.snapshot() {
			writeSample(w, name, labels, c.values, float64(c.metric.Value()))
		}
	})
	return v
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", nil, func(w io.Writer) {
		writeSample(w, name, nil, nil, float64(g.Value()))
	})
	return g
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, func(w io.Writer) {
		writeSample(w, name, nil, nil, fn())
	})
}

// Histogram registers and returns a new histogram with the given upper
// bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", nil, func(w io.Writer) {
		renderHistogram(w, name, nil, nil, h)
	})
	return h
}

// HistogramVec registers and returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	v := &HistogramVec{vec[Histogram]{labels: labels, children: map[string]*child[Histogram]{}, make: func() *Histogram { return newHistogram(bs) }}}
	r.register(name, help, "histogram", labels, func(w io.Writer) {
		for _, c := range v.snapshot() {
			renderHistogram(w, name, labels, c.values, c.metric)
		}
	})
	return v
}

func renderHistogram(w io.Writer, name string, labels, values []string, h *Histogram) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		writeSample(w, name+"_bucket", append(labels, "le"), append(values, formatValue(b)), float64(cum))
	}
	cum += h.buckets[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", append(labels, "le"), append(values, "+Inf"), float64(cum))
	writeSample(w, name+"_sum", labels, values, h.Sum())
	writeSample(w, name+"_count", labels, values, float64(h.Count()))
}

// escapeLabel escapes a label value per the exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeSample(w io.Writer, name string, labels, values []string, v float64) {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel.Replace(values[i]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
	_, _ = io.WriteString(w, sb.String())
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeHelp escapes a HELP string per the exposition format.
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// Expose renders every registered family in registration order.
func (r *Registry) Expose(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp.Replace(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.render(w)
	}
}

// Handler returns an http.Handler serving the exposition page — mount it
// at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Expose(w)
	})
}
