// Package trace is the structured observability subsystem for the whole
// SLAM pipeline: a span-based, concurrency-safe event recorder threaded
// through parsing, alias analysis, signature computation, per-procedure
// abstraction, every cube-search round, every prover query, every Bebop
// fixpoint iteration and every Newton refinement round.
//
// Three sinks consume the event stream:
//
//   - a JSONL event log (one self-describing JSON object per line, see
//     schema.go for the schema and Validate for the checker);
//   - a Chrome trace_event export (WriteChrome) loadable in Perfetto or
//     chrome://tracing;
//   - an end-of-run aggregation (Report) rolling the events up into the
//     paper's Table 1/2 cost columns plus prover-latency histograms and
//     the top-K most expensive queries and procedures.
//
// A nil *Tracer is the valid "disabled" tracer: every method is nil-safe,
// returns immediately, and allocates nothing (guarded by
// TestNilTracerZeroAlloc), so pipeline code can thread a tracer
// unconditionally. All methods on a non-nil Tracer are safe for
// concurrent use.
package trace

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Field is one typed key/value attached to an event or span. Fields are
// concrete values (no interface boxing) so that constructing them on the
// disabled-tracer fast path costs zero allocations.
type Field struct {
	Key string
	// kind selects which payload is live.
	kind fieldKind
	str  string
	num  int64
}

type fieldKind uint8

const (
	fieldStr fieldKind = iota
	fieldInt
	fieldBool
)

// Str builds a string-valued field.
func Str(key, val string) Field { return Field{Key: key, kind: fieldStr, str: val} }

// Int builds an integer-valued field.
func Int(key string, val int) Field { return Field{Key: key, kind: fieldInt, num: int64(val)} }

// Int64 builds an integer-valued field from an int64.
func Int64(key string, val int64) Field { return Field{Key: key, kind: fieldInt, num: val} }

// Bool builds a boolean-valued field.
func Bool(key string, val bool) Field {
	f := Field{Key: key, kind: fieldBool}
	if val {
		f.num = 1
	}
	return f
}

// chromeEvent is one retained event for the Chrome trace_event export.
type chromeEvent struct {
	cat, name string
	ts, dur   int64  // nanoseconds since tracer start; dur < 0 = instant
	args      string // pre-rendered JSON object ("" = none)
}

// Config selects the sinks of a Tracer.
type Config struct {
	// JSONL receives one JSON object per event, newline-terminated. May
	// be nil. The tracer serializes writes; the writer itself need not be
	// concurrency-safe.
	JSONL io.Writer
	// RetainChrome keeps events in memory for WriteChrome. Aggregation
	// for Report is always on; retention is opt-in because event streams
	// can be large.
	RetainChrome bool
}

// Tracer records structured events. The zero value is not useful; use
// New. A nil *Tracer is the disabled tracer: all methods no-op.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	retain bool
	events []chromeEvent
	agg    aggregator
}

// New returns a tracer recording from now, with the configured sinks.
func New(cfg Config) *Tracer {
	t := &Tracer{start: time.Now(), w: cfg.JSONL, retain: cfg.RetainChrome}
	t.agg.init()
	return t
}

// Span is an in-flight interval measurement started by Begin. The zero
// Span (from a nil tracer) is valid and End on it is a no-op.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	start time.Duration // since t.start
}

// Begin opens a span. Close it with End; the span is emitted
// (with its duration) at End time.
func (t *Tracer) Begin(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, start: time.Since(t.start)}
}

// End closes the span, emitting one "span" record carrying the start
// timestamp, duration and the given fields.
func (s Span) End(fields ...Field) {
	if s.t == nil {
		return
	}
	dur := time.Since(s.t.start) - s.start
	s.t.emit(s.cat, s.name, s.start, dur, fields)
}

// Event emits an instant (zero-duration) record.
func (t *Tracer) Event(cat, name string, fields ...Field) {
	if t == nil {
		return
	}
	t.emit(cat, name, time.Since(t.start), -1, fields)
}

// Effort is one search's work as a prover.query event reports it: DPLL
// nodes, theory leaves, and the Fourier–Motzkin runs and equality probes
// of the leaves checked. It is zero for a query no search answered.
type Effort struct {
	Nodes, Leaves, FMRuns, EqProbes int64
}

// ProverQuery records one theorem-prover query: its kind ("valid" or
// "unsat"), a size proxy (length of the canonical formula key), the
// query wall time, verdict, whether the memo cache answered it, whether
// the resource cap fired, the search effort (zero for a cache hit), and
// a truncated description of the formula. This is a dedicated method
// (rather than Event with fields) because it is the hottest trace point
// in the system.
func (t *Tracer) ProverQuery(kind string, desc string, size int, d time.Duration, verdict, cacheHit, gaveUp bool, eff Effort) {
	if t == nil {
		return
	}
	ts := time.Since(t.start) - d
	if ts < 0 {
		ts = 0
	}
	t.emit("prover", "query", ts, d, []Field{
		Str("kind", kind),
		Int("size", size),
		Bool("verdict", verdict),
		Bool("cache_hit", cacheHit),
		Bool("gave_up", gaveUp),
		Int64("nodes", eff.Nodes),
		Int64("leaves", eff.Leaves),
		Int64("fm_runs", eff.FMRuns),
		Int64("eq_probes", eff.EqProbes),
		Str("desc", truncate(desc, maxQueryDesc)),
	})
}

// ProverModelAnswer records a cube check answered by a counter-model of
// an earlier check: a prover.query event with the "not implied" verdict,
// no search effort and the field model_answer set.
func (t *Tracer) ProverModelAnswer(kind string, desc string, size int) {
	if t == nil {
		return
	}
	t.emit("prover", "query", time.Since(t.start), 0, []Field{
		Str("kind", kind),
		Int("size", size),
		Bool("verdict", false),
		Bool("cache_hit", false),
		Bool("model_answer", true),
		Bool("gave_up", false),
		Int64("nodes", 0),
		Int64("leaves", 0),
		Int64("fm_runs", 0),
		Int64("eq_probes", 0),
		Str("desc", truncate(desc, maxQueryDesc)),
	})
}

// Degrade records the first firing of a resource limit: the stage that
// degraded, the canonical limit name, and a short detail (procedure or
// query description). internal/budget deduplicates repeats, so each
// (stage, limit) pair appears at most once per run.
func (t *Tracer) Degrade(stage, limit, detail string) {
	if t == nil {
		return
	}
	t.Event("degrade", "limit",
		Str("stage", stage),
		Str("limit", limit),
		Str("detail", truncate(detail, maxQueryDesc)))
}

// maxQueryDesc bounds the retained formula text per prover query.
const maxQueryDesc = 160

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	// Back off to a rune boundary so the cut never splits UTF-8.
	for n > 0 && s[n]&0xC0 == 0x80 {
		n--
	}
	return s[:n] + "…"
}

// emit serializes one record to the JSONL sink, retains it for the
// Chrome export, and feeds the aggregator. It must not retain the fields
// slice (so callers' variadic backing arrays can live on the stack).
func (t *Tracer) emit(cat, name string, ts, dur time.Duration, fields []Field) {
	t.mu.Lock()
	defer t.mu.Unlock()

	t.agg.consume(cat, name, dur, fields)

	var args string
	if t.w != nil || t.retain {
		args = renderFields(fields)
	}
	if t.w != nil {
		b := t.buf[:0]
		b = append(b, `{"ts":`...)
		b = strconv.AppendInt(b, int64(ts), 10)
		if dur >= 0 {
			b = append(b, `,"type":"span","dur":`...)
			b = strconv.AppendInt(b, int64(dur), 10)
		} else {
			b = append(b, `,"type":"event"`...)
		}
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, cat)
		b = append(b, `,"name":`...)
		b = appendJSONString(b, name)
		if args != "" {
			b = append(b, `,"fields":`...)
			b = append(b, args...)
		}
		b = append(b, '}', '\n')
		t.buf = b
		t.w.Write(b) // best-effort sink: a failing writer must not abort the pipeline
	}
	if t.retain {
		t.events = append(t.events, chromeEvent{
			cat: cat, name: name, ts: int64(ts), dur: int64(dur), args: args,
		})
	}
}

// renderFields renders the fields as a JSON object, or "" when empty.
func renderFields(fields []Field) string {
	if len(fields) == 0 {
		return ""
	}
	b := make([]byte, 0, 64)
	b = append(b, '{')
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		switch f.kind {
		case fieldStr:
			b = appendJSONString(b, f.str)
		case fieldInt:
			b = strconv.AppendInt(b, f.num, 10)
		case fieldBool:
			if f.num != 0 {
				b = append(b, "true"...)
			} else {
				b = append(b, "false"...)
			}
		}
	}
	b = append(b, '}')
	return string(b)
}

// appendJSONString appends s as a JSON string literal, escaping control
// characters, quotes and backslashes. Non-ASCII bytes pass through
// (formula text is UTF-8 already).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}
