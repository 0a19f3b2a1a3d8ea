package metrics

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// TestPromExpositionGolden pins the Prometheus text output byte for
// byte: family ordering (sorted by name regardless of registration
// order), HELP/TYPE lines, histogram bucket layout and float rendering.
// Any change to the exposition layout must update this golden on
// purpose.
func TestPromExpositionGolden(t *testing.T) {
	r := New()
	// Register deliberately out of name order: exposition must sort.
	g := r.Gauge("predabsd_queue_depth", "Jobs waiting in the admission queue.")
	c := r.Counter("predabsd_jobs_submitted_total", "Jobs admitted.")
	h := r.Histogram("predabsd_backoff_sleep_seconds", "Backoff sleeps between attempts.",
		[]float64{0.25, 0.5, 1})
	r.GaugeFunc("predabsd_uptime_seconds", "Seconds since daemon start.", func() int64 { return 17 })

	c.Add(3)
	c.Inc()
	g.Set(2)
	h.Observe(0.125)
	h.Observe(0.5)
	h.Observe(4)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP predabsd_backoff_sleep_seconds Backoff sleeps between attempts.
# TYPE predabsd_backoff_sleep_seconds histogram
predabsd_backoff_sleep_seconds_bucket{le="0.25"} 1
predabsd_backoff_sleep_seconds_bucket{le="0.5"} 2
predabsd_backoff_sleep_seconds_bucket{le="1"} 2
predabsd_backoff_sleep_seconds_bucket{le="+Inf"} 3
predabsd_backoff_sleep_seconds_sum 4.625
predabsd_backoff_sleep_seconds_count 3
# HELP predabsd_jobs_submitted_total Jobs admitted.
# TYPE predabsd_jobs_submitted_total counter
predabsd_jobs_submitted_total 4
# HELP predabsd_queue_depth Jobs waiting in the admission queue.
# TYPE predabsd_queue_depth gauge
predabsd_queue_depth 2
# HELP predabsd_uptime_seconds Seconds since daemon start.
# TYPE predabsd_uptime_seconds gauge
predabsd_uptime_seconds 17
`
	if got := buf.String(); got != want {
		t.Errorf("exposition diverges from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A second scrape of unchanged state is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != want {
		t.Error("second scrape of unchanged state is not byte-identical")
	}
}

// TestRegistryGetOrCreate checks that re-registration returns the same
// instrument and that a kind clash panics instead of silently aliasing.
func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counters diverge")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestRegistryConcurrentStress hammers one registry from many
// goroutines — counters, gauges, histograms, registration and scrapes
// all racing — and checks the final counts. Run under -race by the
// metrics-lint gate.
func TestRegistryConcurrentStress(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration races: every worker re-registers the same
			// families and must observe the same instruments.
			c := r.Counter("stress_total", "stress")
			g := r.Gauge("stress_gauge", "stress")
			h := r.Histogram("stress_seconds", "stress", DurationBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%7) * 0.01)
				if i%100 == 0 {
					if err := r.WriteText(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("stress_total", "stress").Value(); got != workers*perWorker {
		t.Errorf("counter after stress: %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("stress_gauge", "stress").Value(); got != 0 {
		t.Errorf("gauge after balanced adds: %d, want 0", got)
	}
	if got := r.Histogram("stress_seconds", "stress", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count after stress: %d, want %d", got, workers*perWorker)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stress_total 16000") {
		t.Errorf("final exposition missing the stress counter:\n%s", buf.String())
	}
}

// TestDisabledMetricsZeroAlloc mirrors trace's TestNilTracerZeroAlloc:
// every operation on a disabled (nil) registry and the nil instruments
// it hands out must allocate nothing, so the daemon can thread metrics
// unconditionally through admission, backoff and supervision.
func TestDisabledMetricsZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("predabsd_jobs_submitted_total", "disabled")
	g := r.Gauge("predabsd_queue_depth", "disabled")
	h := r.Histogram("predabsd_backoff_sleep_seconds", "disabled", DurationBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	cases := map[string]func(){
		"Counter.Inc/Add":   func() { c.Inc(); c.Add(3) },
		"Gauge.Set/Inc/Dec": func() { g.Set(7); g.Inc(); g.Dec() },
		"Histogram.Observe": func() { h.Observe(0.25) },
		"Registry.Counter":  func() { r.Counter("x_total", "x") },
		"Registry.GaugeFunc": func() {
			r.GaugeFunc("y", "y", func() int64 { return 0 })
		},
		"WriteText": func() { r.WriteText(io.Discard) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s on disabled metrics: %.1f allocs/op, want 0", name, n)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench_seconds", "bench", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

func BenchmarkDisabledCounterInc(b *testing.B) {
	var reg *Registry
	c := reg.Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkWriteText(b *testing.B) {
	reg := New()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("bench_%02d_total", i), "bench").Add(int64(i))
	}
	reg.Histogram("bench_seconds", "bench", DurationBuckets).Observe(0.042)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.WriteText(io.Discard)
	}
}

func TestLabeledExpositionGolden(t *testing.T) {
	reg := New()
	up := reg.GaugeVec("fleet_backend_up", "Backend readiness.", "backend")
	up.With("http://b:1").Set(1)
	up.With("http://a:1").Set(0)
	disp := reg.CounterVec("fleet_dispatches_total", "Dispatches per backend.", "backend")
	disp.With(`odd"quote\and
newline`).Add(3)
	// Same name + label returns the same series; a scrape renders label
	// values sorted and escaped.
	if got := reg.CounterVec("fleet_dispatches_total", "x", "backend"); got != disp {
		t.Fatal("re-registration did not return the existing vec")
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP fleet_backend_up Backend readiness.
# TYPE fleet_backend_up gauge
fleet_backend_up{backend="http://a:1"} 0
fleet_backend_up{backend="http://b:1"} 1
# HELP fleet_dispatches_total Dispatches per backend.
# TYPE fleet_dispatches_total counter
fleet_dispatches_total{backend="odd\"quote\\and\nnewline"} 3
`
	if buf.String() != want {
		t.Fatalf("labeled exposition mismatch:\n got: %q\nwant: %q", buf.String(), want)
	}
}

func TestLabeledNilSafety(t *testing.T) {
	var reg *Registry
	cv := reg.CounterVec("x_total", "x", "l")
	gv := reg.GaugeVec("x_up", "x", "l")
	if cv != nil || gv != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
	cv.With("a").Inc() // must not panic
	gv.With("a").Set(7)
	if cv.With("a").Value() != 0 || gv.With("a").Value() != 0 {
		t.Fatal("nil vec instruments must read zero")
	}
}

func TestLabeledKindMismatchPanics(t *testing.T) {
	reg := New()
	reg.Counter("plain_total", "x")
	for name, fn := range map[string]func(){
		"vec over plain": func() { reg.CounterVec("plain_total", "x", "l") },
		"plain over vec": func() { reg.CounterVec("vec_total", "x", "l"); reg.Counter("vec_total", "x") },
		"label mismatch": func() { reg.GaugeVec("g_up", "x", "l"); reg.GaugeVec("g_up", "x", "other") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			fn()
		}()
	}
}
