// Package metrics is a dependency-free, race-safe metrics registry for
// the predabs daemons: monotonic counters, gauges (direct or callback),
// fixed-bucket histograms, and single-label counter/gauge families
// (CounterVec/GaugeVec — the fleet frontend's per-backend series),
// exposed in the Prometheus text format with byte-deterministic family
// ordering (families sort by name and labeled series by label value, so
// two scrapes of the same state render identically).
//
// A nil *Registry is the valid "disabled" registry, mirroring the nil
// *trace.Tracer contract: every method — including the instruments it
// hands out, which are then nil — is nil-safe, returns immediately, and
// allocates nothing (guarded by TestDisabledMetricsZeroAlloc). Server
// code therefore threads instruments unconditionally through its hot
// paths (admission, backoff, attempt supervision) without branching on
// whether metrics are on.
//
// All methods on non-nil instruments are safe for concurrent use; a
// scrape (WriteText) may race arbitrarily many writers and observes
// each instrument atomically.
package metrics

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

// Counter is a monotonically increasing metric. A nil *Counter (from a
// nil Registry) no-ops at zero cost.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n; negative n is ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order (an implicit +Inf bucket is always appended), fixed at
// registration so the exposition layout is deterministic for the life of
// the process. A nil *Histogram no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// CounterVec is a counter family keyed by one label: every With(value)
// returns the counter for that label value, creating it on first use.
// The fleet frontend uses it for per-backend counters — one family, one
// series per backend URL. A nil *CounterVec (from a nil Registry) hands
// out nil *Counters, which no-op at zero cost.
type CounterVec struct {
	mu     sync.Mutex
	series map[string]*Counter
}

// With returns the counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[value]
	if !ok {
		c = &Counter{}
		v.series[value] = c
	}
	return c
}

// GaugeVec is a gauge family keyed by one label; see CounterVec.
type GaugeVec struct {
	mu     sync.Mutex
	series map[string]*Gauge
}

// With returns the gauge for the given label value.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.series[value]
	if !ok {
		g = &Gauge{}
		v.series[value] = g
	}
	return g
}

// snapshot returns the label values (sorted, so the exposition is
// byte-deterministic) and their instruments.
func (v *CounterVec) snapshot() ([]string, map[string]*Counter) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.series))
	out := make(map[string]*Counter, len(v.series))
	for val, c := range v.series {
		vals = append(vals, val)
		out[val] = c
	}
	sort.Strings(vals)
	return vals, out
}

func (v *GaugeVec) snapshot() ([]string, map[string]*Gauge) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.series))
	out := make(map[string]*Gauge, len(v.series))
	for val, g := range v.series {
		vals = append(vals, val)
		out[val] = g
	}
	sort.Strings(vals)
	return vals, out
}

// DurationBuckets are the default latency buckets in seconds: fixed and
// deterministic (1ms to 60s, roughly 1-2.5-5 per decade), shared by
// every duration histogram so dashboards line up across metrics.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// family kinds.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// family is one registered metric family. Labeled families (cv/gv set)
// carry the label key and render one line per label value; exactly one
// of the instrument fields is non-nil.
type family struct {
	name, help, kind string
	label            string // labeled families only
	c                *Counter
	g                *Gauge
	gf               func() int64 // callback gauge; g is nil
	h                *Histogram
	cv               *CounterVec
	gv               *GaugeVec
}

// Registry holds metric families. The zero value is not useful; use New.
// A nil *Registry is the disabled registry: registration returns nil
// instruments and WriteText writes nothing.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register looks name up, creating it via mk on first use. A name reused
// with a different kind is a programming error and panics.
func (r *Registry) register(name, help, kind string, mk func() *family) *family {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := mk()
	f.name, f.help, f.kind = name, help, kind
	r.fams[name] = f
	return f
}

// Counter returns the counter named name, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindCounter, func() *family {
		return &family{c: &Counter{}}
	})
	if f.c == nil {
		panic(fmt.Sprintf("metrics: %s registered as a labeled counter", name))
	}
	return f.c
}

// CounterVec returns the labeled counter family named name with the
// given label key, registering it on first use. A name registered as a
// plain counter cannot be reused labeled (and vice versa).
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	checkName(label)
	f := r.register(name, help, kindCounter, func() *family {
		return &family{label: label, cv: &CounterVec{series: map[string]*Counter{}}}
	})
	if f.cv == nil {
		panic(fmt.Sprintf("metrics: %s registered as an unlabeled counter", name))
	}
	if f.label != label {
		panic(fmt.Sprintf("metrics: %s registered with label %q, requested with %q", name, f.label, label))
	}
	return f.cv
}

// GaugeVec returns the labeled gauge family named name with the given
// label key, registering it on first use; see CounterVec.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	checkName(label)
	f := r.register(name, help, kindGauge, func() *family {
		return &family{label: label, gv: &GaugeVec{series: map[string]*Gauge{}}}
	})
	if f.gv == nil {
		panic(fmt.Sprintf("metrics: %s registered as an unlabeled gauge", name))
	}
	if f.label != label {
		panic(fmt.Sprintf("metrics: %s registered with label %q, requested with %q", name, f.label, label))
	}
	return f.gv
}

// Gauge returns the gauge named name, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindGauge, func() *family {
		return &family{g: &Gauge{}}
	})
	if f.g == nil {
		panic(fmt.Sprintf("metrics: %s registered as a callback gauge", name))
	}
	return f.g
}

// GaugeFunc registers a callback gauge: fn is invoked at each scrape.
// fn must be safe for concurrent use and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, func() *family {
		return &family{gf: fn}
	})
}

// Histogram returns the histogram named name with the given bucket upper
// bounds (ascending; +Inf is implicit), registering it on first use.
// Later calls ignore their bounds argument and return the first
// registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHist, func() *family {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: %s: bucket bounds not ascending", name))
			}
		}
		return &family{h: &Histogram{
			bounds: append([]float64{}, bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}}
	}).h
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4). Families render sorted by name and each
// family's lines in a fixed order, so the output layout is
// byte-deterministic for a given set of values.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	b := make([]byte, 0, 256)
	for _, f := range fams {
		b = b[:0]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		switch {
		case f.c != nil:
			b = append(b, f.name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, f.c.Value(), 10)
			b = append(b, '\n')
		case f.g != nil || f.gf != nil:
			v := f.gf
			if v == nil {
				v = f.g.Value
			}
			b = append(b, f.name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, v(), 10)
			b = append(b, '\n')
		case f.h != nil:
			b = appendHistogram(b, f.name, f.h)
		case f.cv != nil:
			vals, series := f.cv.snapshot()
			for _, val := range vals {
				b = appendLabeled(b, f.name, f.label, val, series[val].Value())
			}
		case f.gv != nil:
			vals, series := f.gv.snapshot()
			for _, val := range vals {
				b = appendLabeled(b, f.name, f.label, val, series[val].Value())
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendHistogram renders the cumulative _bucket series, _sum and
// _count. Bucket counts are read once into a snapshot so the cumulative
// sums are internally consistent even while writers race the scrape.
func appendHistogram(b []byte, name string, h *Histogram) []byte {
	snap := make([]int64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += snap[i]
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		b = appendFloat(b, bound)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	cum += snap[len(snap)-1]
	b = append(b, name...)
	b = append(b, `_bucket{le="+Inf"} `...)
	b = strconv.AppendInt(b, cum, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_sum "...)
	b = appendFloat(b, math.Float64frombits(h.sum.Load()))
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendInt(b, cum, 10)
	return append(b, '\n')
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendLabeled renders one labeled series line: name{label="value"} v.
func appendLabeled(b []byte, name, label, value string, v int64) []byte {
	b = append(b, name...)
	b = append(b, '{')
	b = append(b, label...)
	b = append(b, `="`...)
	b = append(b, escapeLabelValue(value)...)
	b = append(b, `"} `...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// escapeLabelValue escapes backslashes, double quotes and newlines per
// the exposition format's label-value rules.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// checkName rejects metric names outside [a-zA-Z_:][a-zA-Z0-9_:]*; an
// invalid name is a programming error, caught at registration.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
}
