package trace

import (
	"io"
	"strconv"
)

// WriteChrome renders the retained events in the Chrome trace_event JSON
// array format (the "JSON Array Format" of the trace-event spec), which
// Perfetto and chrome://tracing load directly. Spans become "X"
// (complete) events with microsecond timestamps; instants become "i"
// events. Every event sits on one lane (Chrome thread id 0), named
// "pipeline".
//
// The tracer must have been created with Config.RetainChrome; otherwise
// the export is empty (an empty, still-loadable trace).
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	events := t.events
	t.mu.Unlock()

	if _, err := io.WriteString(w, `{"traceEvents":[`+"\n"); err != nil {
		return err
	}
	b := make([]byte, 0, 256)
	for i, e := range events {
		b = b[:0]
		if i > 0 {
			b = append(b, ',', '\n')
		}
		b = append(b, `{"pid":1,"tid":0,"ts":`...)
		// Chrome timestamps are microseconds; keep sub-µs precision as a
		// decimal fraction.
		b = appendMicros(b, e.ts)
		if e.dur >= 0 {
			b = append(b, `,"ph":"X","dur":`...)
			b = appendMicros(b, e.dur)
		} else {
			b = append(b, `,"ph":"i","s":"t"`...)
		}
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, e.cat)
		b = append(b, `,"name":`...)
		b = appendJSONString(b, e.name)
		if e.args != "" {
			b = append(b, `,"args":`...)
			b = append(b, e.args...)
		}
		b = append(b, '}')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if len(events) > 0 {
		if _, err := io.WriteString(w, ",\n"+`{"pid":1,"tid":0,"ph":"M","name":"thread_name","args":{"name":"pipeline"}}`); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// appendMicros renders ns as a decimal microsecond count ("1234.567").
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac != 0 {
		b = append(b, '.')
		b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	}
	return b
}
