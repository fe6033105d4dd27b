// Package obs is the observability substrate shared by the simulator's
// CLIs and the campaign daemon: a dependency-free metrics registry
// (counters, gauges, histograms, with label support and atomic hot
// paths) that renders the Prometheus text exposition format, plus the
// slog-based structured-logging setup.
//
// The registry is deliberately small. Hot paths touch a single atomic;
// label resolution (Vec.With) takes a mutex and is meant to run once at
// wiring time, with the resolved *Counter/*Gauge/*Histogram held by the
// instrumented code. Exposition output is fully deterministic —
// families and series are sorted — so golden tests and CI assertions
// can compare it byte for byte.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits in
// one atomic word.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is lock-free: a
// binary search over the upper bounds, one atomic bucket increment, and
// a CAS-add into the sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    Gauge // reuses the atomic float-add
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets are the default histogram bounds (seconds), matching the
// conventional Prometheus latency layout.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous — the usual shape for event counts and sizes.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// metric kinds, in exposition vocabulary.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one metric name: its metadata and all its label series.
type family struct {
	name, help, kind string
	labels           []string
	bounds           []float64      // histograms only
	fn               func() float64 // gauge-func families evaluate at scrape
	mu               sync.Mutex
	series           map[string]any // encoded label values -> *Counter/*Gauge/*Histogram
}

// Registry holds a process's (or a test's) metric families. The zero
// value is not usable; call NewRegistry. Services own their registry
// explicitly — there is no package-global default, so two services in
// one test process never collide.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// register creates or revalidates a family. Re-registering with a
// different shape is a wiring bug and panics.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds, series: make(map[string]any)}
	r.fams[name] = f
	return f
}

// get returns the family's series for the encoded label values,
// creating it with mk on first use.
func (f *family) get(key string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	return s
}

// encode joins label values with an unprintable separator so distinct
// tuples never collide.
func encode(f *family, values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, "\x1f")
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get("", func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.get("", func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, kindHistogram, nil, bounds)
	return f.get("", func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// scrape time — uptime, queue lengths, anything already tracked
// elsewhere. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.fn = fn
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a gauge family with label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With resolves one label-value tuple to its gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(encode(v.f, values), func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a histogram family with the given
// bounds (nil = DefBuckets) and label keys.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, bounds)}
}

// With resolves one label-value tuple to its histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(encode(v.f, values), func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4). Families are sorted by name
// and series by label values, so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		return
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		key string
		s   any
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, f.series[k]})
	}
	f.mu.Unlock()

	for _, rw := range rows {
		labels := labelString(f.labels, rw.key)
		switch s := rw.s.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, strconv.FormatUint(s.Value(), 10))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(s.Value()))
		case *Histogram:
			var cum uint64
			for i, bound := range s.bounds {
				cum += s.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(f.labels, rw.key, formatFloat(bound)), cum)
			}
			cum += s.counts[len(s.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(f.labels, rw.key, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(s.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, s.Count())
		}
	}
}

// labelString renders {k="v",...} for an encoded value tuple ("" for
// unlabeled series).
func labelString(keys []string, encoded string) string {
	if len(keys) == 0 {
		return ""
	}
	return "{" + labelPairs(keys, encoded) + "}"
}

// withLE renders the label set with the histogram le label appended.
func withLE(keys []string, encoded, le string) string {
	inner := labelPairs(keys, encoded)
	if inner != "" {
		inner += ","
	}
	return "{" + inner + `le="` + le + `"}`
}

func labelPairs(keys []string, encoded string) string {
	if len(keys) == 0 {
		return ""
	}
	values := strings.Split(encoded, "\x1f")
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabel(values[i]) + `"`
	}
	return strings.Join(parts, ",")
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
