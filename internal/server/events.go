package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"predabs/internal/checkpoint"
)

// eventsMagic stamps the per-job event log (format 1); the framing
// underneath is checkpoint.Log's CRC discipline, so a crash mid-append
// loses at most the record being written and a daemon restart replays
// exactly the records that were durable — never duplicating one, because
// replay only reads (sequence numbers are assigned from the replayed
// maximum, not re-appended).
const eventsMagic = "PREDABSEVT1\x00"

// EventsName is the event log's file name inside each job directory.
const EventsName = "events.predabs"

// Job event types. The supervisor writes "state", "spawn", "kill" and
// "adopt"; the worker writes "progress" heartbeats at each CEGAR
// iteration boundary. The two writers never overlap in time: the
// supervisor appends only between worker attempts (before spawn, after
// exit), the worker only while its attempt runs — which is what makes
// the shared single-writer log sound.
const (
	EventState    = "state"    // job state transition (State field)
	EventSpawn    = "spawn"    // worker attempt spawned (Attempt field)
	EventKill     = "kill"     // worker SIGKILLed on the attempt deadline
	EventAdopt    = "adopt"    // orphaned complete result adopted
	EventProgress = "progress" // CEGAR iteration heartbeat from the worker
	// EventTruncate is the retention-rotation marker: events with
	// sequence numbers <= Seq were discarded when the log outgrew its
	// byte cap (Dropped counts them). It is always the log's first
	// record, its Seq immediately precedes the oldest retained event,
	// and the retained stream stays dense after it — which is what keeps
	// the resumable ?after=N contract intact across rotations: a client
	// whose cursor is at or past the marker sees no difference at all,
	// and one whose cursor predates it receives the marker as explicit
	// notice instead of a silent gap.
	EventTruncate = "truncate"
)

// JobEvent is one record of a job's durable event log, exposed to
// clients as NDJSON at GET /jobs/{id}/events. Seq is assigned at append
// time and is dense and strictly increasing per job across daemon
// restarts and worker attempts, so a client that saw records through
// seq N resumes with ?after=N and observes no gap and no duplicate.
type JobEvent struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts"` // unix nanoseconds
	Type    string `json:"type"`
	State   string `json:"state,omitempty"`   // state: the new job state
	Attempt int    `json:"attempt,omitempty"` // 1-based worker attempt
	Detail  string `json:"detail,omitempty"`

	// Progress payload (type "progress"): the CEGAR iteration that just
	// committed, the predicate-pool size entering the next iteration, the
	// cumulative prover interaction count (queries + incremental-session
	// checks) and the abstraction engine.
	Iter    int    `json:"iter,omitempty"`
	Preds   int    `json:"preds,omitempty"`
	Queries int64  `json:"queries,omitempty"`
	Engine  string `json:"engine,omitempty"`

	// Dropped (type "truncate") counts the events discarded by log
	// rotation; sequences are dense from 1, so it always equals Seq.
	Dropped uint64 `json:"dropped,omitempty"`
}

// eventFrame pairs a retained event's sequence with its raw payload,
// so rotation rewrites the kept suffix byte-identically.
type eventFrame struct {
	seq     uint64
	payload []byte
}

// appendJobEventFS durably appends ev to dir's event log on fsys (nil =
// the real filesystem), assigning the next sequence number from the
// replayed maximum. Open-append-close per record keeps the log
// single-writer-at-a-time under the supervisor / worker temporal
// handoff (neither holds a stale write offset across the other's
// appends) and makes restart replay idempotent by construction. The
// fsync cost is one frame per supervision transition or CEGAR
// iteration — noise next to the checkpoint commit each iteration
// already pays. When maxBytes > 0 and the log exceeds it after the
// append, the oldest events rotate out behind an EventTruncate marker
// (see rotateEvents).
func appendJobEventFS(fsys checkpoint.FS, dir string, maxBytes int64, ev JobEvent) (uint64, error) {
	var last uint64
	var kept []eventFrame
	path := filepath.Join(dir, EventsName)
	log, err := checkpoint.OpenLog(fsys, path, eventsMagic,
		func(payload []byte) {
			var e JobEvent
			if json.Unmarshal(payload, &e) == nil {
				if e.Seq > last {
					last = e.Seq
				}
				// Rotation rewrites retained events verbatim; an old
				// truncate marker is superseded by the new one.
				if maxBytes > 0 && e.Type != EventTruncate {
					kept = append(kept, eventFrame{e.Seq, append([]byte(nil), payload...)})
				}
			}
		})
	if err != nil {
		return 0, err
	}
	ev.Seq = last + 1
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		log.Close()
		return 0, err
	}
	if err := log.Append(payload); err != nil {
		log.Close()
		return 0, err
	}
	over := maxBytes > 0 && log.Size() > maxBytes
	log.Close()
	if over {
		// Best-effort: the append above is already durable, so a failed
		// rotation only means the log stays big until the next try.
		rotateEvents(fsys, path, maxBytes, append(kept, eventFrame{ev.Seq, payload}))
	}
	return ev.Seq, nil
}

// rotateEvents rewrites the event log down to roughly half its byte cap
// by keeping the newest events (always at least the latest one) behind
// an EventTruncate marker whose Seq/Dropped name the last discarded
// sequence. RewriteLog's rename is the commit point: a crash or fault
// mid-rotation leaves the previous generation intact.
func rotateEvents(fsys checkpoint.FS, path string, maxBytes int64, events []eventFrame) {
	target := maxBytes / 2
	keep := len(events) - 1 // always retain the newest event
	size := int64(len(events[keep].payload)) + checkpoint.FrameOverhead
	for keep > 0 {
		next := int64(len(events[keep-1].payload)) + checkpoint.FrameOverhead
		if size+next > target {
			break
		}
		size += next
		keep--
	}
	if keep == 0 {
		return // nothing to drop (one oversized event); the cap is advisory
	}
	lastDropped := events[keep-1].seq
	marker, err := json.Marshal(JobEvent{
		Seq: lastDropped, TS: time.Now().UnixNano(),
		Type: EventTruncate, Dropped: lastDropped,
	})
	if err != nil {
		return
	}
	frames := make([][]byte, 0, len(events)-keep+1)
	frames = append(frames, marker)
	for _, e := range events[keep:] {
		frames = append(frames, e.payload)
	}
	checkpoint.RewriteLog(fsys, path, eventsMagic, frames)
}

// readJobEvents returns dir's events with Seq > after, in append order,
// reading strictly read-only (a torn or in-progress tail ends the read,
// it is never repaired from here — see checkpoint.ReplayLog).
func readJobEvents(dir string, after uint64) ([]JobEvent, error) {
	var out []JobEvent
	_, err := checkpoint.ReplayLog(nil, filepath.Join(dir, EventsName), eventsMagic,
		func(payload []byte) {
			var e JobEvent
			if json.Unmarshal(payload, &e) == nil && e.Seq > after {
				out = append(out, e)
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// knownEventStates are the State values a "state" event may carry.
var knownEventStates = map[string]bool{
	StateQueued: true, StateRunning: true, StateRetrying: true,
	StateDone: true, StateFailed: true,
}

// ValidateEvents checks an NDJSON export of a job event log (the body
// of GET /jobs/{id}/events) against the record schema: known types,
// strictly increasing dense sequence numbers, non-negative timestamps,
// and per-type payload rules. It returns the number of records read and
// the first violation with its 1-based line number. cmd/tracelint
// -events drives it.
func ValidateEvents(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	n := 0
	var prevSeq uint64
	first := true
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev JobEvent
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return n, fmt.Errorf("line %d: not a job-event record: %v", n, err)
		}
		if err := validateEvent(ev, prevSeq, first); err != nil {
			return n, fmt.Errorf("line %d: %w", n, err)
		}
		prevSeq = ev.Seq
		first = false
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

func validateEvent(ev JobEvent, prevSeq uint64, first bool) error {
	if ev.Seq == 0 {
		return fmt.Errorf("missing or zero seq")
	}
	// A stream may start mid-log (?after=N), so the first seq is free;
	// after that the sequence must stay dense — a jump is a lost record,
	// a repeat a duplicated one. A truncation marker does not bend this
	// rule: its Seq is the last discarded sequence, so the oldest
	// retained event is exactly Seq+1 and the stream reads dense across
	// the marker.
	if !first && ev.Seq != prevSeq+1 {
		return fmt.Errorf("seq %d after %d: stream must be dense and strictly increasing", ev.Seq, prevSeq)
	}
	if ev.TS < 0 {
		return fmt.Errorf("negative ts")
	}
	if ev.Attempt < 0 {
		return fmt.Errorf("negative attempt")
	}
	switch ev.Type {
	case EventState:
		if !knownEventStates[ev.State] {
			return fmt.Errorf("unknown state %q", ev.State)
		}
	case EventSpawn, EventKill:
		if ev.Attempt < 1 {
			return fmt.Errorf("%s event without a positive attempt", ev.Type)
		}
	case EventAdopt:
		// No payload requirements.
	case EventTruncate:
		// Rotation markers only ever open a stream: the rewrite puts the
		// marker first, and a resumed cursor past it never sees one.
		if !first {
			return fmt.Errorf("truncate marker mid-stream (seq %d after %d)", ev.Seq, prevSeq)
		}
		if ev.Dropped < 1 {
			return fmt.Errorf("truncate marker without a positive dropped count")
		}
		if ev.Dropped != ev.Seq {
			return fmt.Errorf("truncate marker dropped %d != seq %d (sequences are dense from 1)", ev.Dropped, ev.Seq)
		}
	case EventProgress:
		if ev.Iter < 1 {
			return fmt.Errorf("progress event without a positive iter")
		}
		if ev.Preds < 0 || ev.Queries < 0 {
			return fmt.Errorf("progress event with negative counters")
		}
	default:
		return fmt.Errorf("unknown event type %q", ev.Type)
	}
	return nil
}
