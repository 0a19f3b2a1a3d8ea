package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL schema, enforced by Validate (and cmd/tracelint) so the
// sinks cannot drift from their consumers:
//
//	{"ts": <ns int ≥ 0>,            required
//	 "type": "span" | "event",      required
//	 "dur": <ns int ≥ 0>,           required iff type == "span"
//	 "cat": <known category>,       required
//	 "name": <known name for cat>,  required
//	 "fields": {k: str|num|bool}}   optional
//
// Categories and event names form a closed taxonomy (Taxonomy). Adding a
// new trace point means adding it there first — tests validate every
// emitted line against it. Events listed in RequiredFields must also
// carry those fields with those JSON types.

// Taxonomy is the closed registry of event categories and names.
var Taxonomy = map[string][]string{
	"frontend": {"parse", "alias"},
	"abstract": {"run", "signatures", "proc", "predicates"},
	"cube":     {"search", "enforce", "round"},
	// Model-enumeration abstraction engine (-abs-engine=models): one
	// "session" span per blocking-clause loop, with kind/checks/models/
	// complete fields. The default cube engine emits none of these.
	"abs.enum": {"session"},
	"prover":   {"query"},
	"bebop":    {"check", "fixpoint", "iter", "trace"},
	"newton":   {"analyze"},
	"slam":     {"iteration", "outcome"},
	"degrade":  {"limit"},
	// Checkpoint/resume (internal/checkpoint): "restore" spans the
	// journal replay + warm start, "commit" spans one durable iteration
	// record, "final" marks the outcome record, "repair" reports a
	// torn-tail truncation and "coldstart" a journal rejected as corrupt
	// or incompatible.
	"checkpoint": {"restore", "commit", "final", "repair", "coldstart"},
	// Daemon supervision (internal/server): lanes the merged Chrome
	// export synthesizes from a job's durable event log — "supervise" and
	// "attempt" span the daemon lane, the rest are instants mirroring the
	// job-event taxonomy (state transitions, worker spawn/kill, orphan
	// adoption, CEGAR progress heartbeats). No worker emits these into
	// trace JSONL; they exist so merged traces validate under one schema.
	"daemon": {"supervise", "attempt", "spawn", "kill", "adopt", "state", "progress"},
	// Fleet routing (internal/fleet): instants mirroring the frontend's
	// durable ledger record taxonomy — a job's admission (and dedup
	// collapse), each backend dispatch, lease expiries (failovers),
	// post-restart adoptions and the terminal verdict. Synthesized-only,
	// like "daemon": no worker emits these, they exist so fleet event
	// streams rendered into merged traces validate under one schema.
	"fleet": {"admit", "dispatch", "lease", "adopt", "verdict"},
}

// RequiredFields maps "cat/name" to the fields every such event must
// carry and their JSON types ("string", "count" — an integer ≥ 0 — or
// "bool"). A prover.query event always reports its search effort:
// nodes, leaves, fm_runs and eq_probes are 0 for a cache hit. A bebop.trace span reports the
// counterexample's steps (0 when none was found) and the states its
// search visited.
var RequiredFields = map[string]map[string]string{
	"prover/query": {
		"kind": "string", "size": "count", "verdict": "bool", "cache_hit": "bool",
		"gave_up": "bool", "nodes": "count", "leaves": "count",
		"fm_runs": "count", "eq_probes": "count", "desc": "string",
	},
	"bebop/trace": {"steps": "count", "states": "count"},
}

// rawEvent mirrors one JSONL line for validation.
type rawEvent struct {
	TS     *int64                     `json:"ts"`
	Type   string                     `json:"type"`
	Dur    *int64                     `json:"dur"`
	Cat    string                     `json:"cat"`
	Name   string                     `json:"name"`
	Fields map[string]json.RawMessage `json:"fields"`
}

// ValidateLine checks one JSONL line against the schema.
func ValidateLine(line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var e rawEvent
	if err := dec.Decode(&e); err != nil {
		return fmt.Errorf("not a schema-conforming JSON object: %v", err)
	}
	if e.TS == nil || *e.TS < 0 {
		return fmt.Errorf("missing or negative ts")
	}
	switch e.Type {
	case "span":
		if e.Dur == nil || *e.Dur < 0 {
			return fmt.Errorf("span without non-negative dur")
		}
	case "event":
		if e.Dur != nil {
			return fmt.Errorf("instant event must not carry dur")
		}
	default:
		return fmt.Errorf("type %q is not span|event", e.Type)
	}
	names, ok := Taxonomy[e.Cat]
	if !ok {
		return fmt.Errorf("unknown category %q", e.Cat)
	}
	if !containsStr(names, e.Name) {
		return fmt.Errorf("unknown name %q in category %q", e.Name, e.Cat)
	}
	for k, typ := range RequiredFields[e.Cat+"/"+e.Name] {
		if err := checkFieldType(e.Fields[k], typ); err != nil {
			return fmt.Errorf("%s/%s field %q: %v", e.Cat, e.Name, k, err)
		}
	}
	for k, v := range e.Fields {
		if k == "" {
			return fmt.Errorf("empty field key")
		}
		var s string
		var n float64
		var bo bool
		if json.Unmarshal(v, &s) != nil && json.Unmarshal(v, &n) != nil && json.Unmarshal(v, &bo) != nil {
			return fmt.Errorf("field %q is not string|number|bool", k)
		}
	}
	return nil
}

// checkFieldType checks one required field's raw JSON value.
func checkFieldType(v json.RawMessage, typ string) error {
	if v == nil {
		return fmt.Errorf("missing")
	}
	var ok bool
	switch typ {
	case "string":
		var s string
		ok = json.Unmarshal(v, &s) == nil
	case "bool":
		var b bool
		ok = json.Unmarshal(v, &b) == nil
	case "count":
		var n int64
		ok = json.Unmarshal(v, &n) == nil && n >= 0
	}
	if !ok {
		return fmt.Errorf("not a %s: %s", typ, v)
	}
	return nil
}

// Validate checks a whole JSONL stream, returning the first violation
// with its 1-based line number, and the number of valid lines read.
func Validate(r io.Reader) (lines int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := ValidateLine(line); err != nil {
			return n, fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
