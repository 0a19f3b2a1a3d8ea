package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
)

// This file stitches the two halves of a job's observability across the
// process boundary: the daemon's supervision events (events.predabs,
// wall-clock timestamps) and each worker attempt's trace JSONL
// (timestamps relative to that worker's tracer start). The merged export
// is one Chrome trace_event JSON document where the daemon occupies lane
// 0 and attempt N's pipeline lane N renders under it, rebased onto the
// job's wall-clock timeline using the attempt's spawn event as its epoch.

// mergedEvent is one Chrome trace_event record of the merged export.
// Timestamps and durations are microseconds (float to keep sub-µs
// precision from the worker's nanosecond clocks).
type mergedEvent struct {
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Ph   string          `json:"ph"`
	Dur  float64         `json:"dur,omitempty"`
	S    string          `json:"s,omitempty"` // instant scope ("t")
	Cat  string          `json:"cat"`
	Name string          `json:"name"`
	Args json.RawMessage `json:"args,omitempty"`
}

// workerTraceLine mirrors the trace package's JSONL record shape (see
// internal/trace.emit): ts/dur are nanoseconds since the worker tracer
// started.
type workerTraceLine struct {
	TS     int64           `json:"ts"`
	Type   string          `json:"type"`
	Dur    int64           `json:"dur"`
	Cat    string          `json:"cat"`
	Name   string          `json:"name"`
	Fields json.RawMessage `json:"fields"`
}

func (s *Server) handleChromeTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	evs, err := readJobEvents(j.dir, 0)
	if err != nil || len(evs) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no events recorded for job"})
		return
	}
	doc := mergeChromeTrace(j.dir, evs)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"traceEvents": doc})
}

// mergeChromeTrace builds the merged event list: the daemon supervision
// lane from the job's event log, then one pipeline lane per attempt that
// left a trace file, each rebased to its spawn timestamp.
func mergeChromeTrace(dir string, evs []JobEvent) []mergedEvent {
	t0 := evs[0].TS // job epoch: everything is rendered relative to this
	last := evs[len(evs)-1].TS
	micros := func(ns int64) float64 { return float64(ns) / 1e3 }

	var out []mergedEvent
	// The whole supervision window as one span, so the daemon lane shows
	// the job's full extent even when attempts cover only part of it.
	out = append(out, mergedEvent{
		Tid: 0, Ts: 0, Ph: "X", Dur: micros(last - t0),
		Cat: "daemon", Name: "supervise",
	})

	// Per-attempt spans on the daemon lane: spawn opens the attempt, the
	// next non-progress daemon event closes it (kill, or the state
	// transition the supervisor logs right after the worker exits). An
	// attempt still running when the log was read extends to the log end.
	spawnTS := map[int]int64{}
	for i, ev := range evs {
		if ev.Type != EventSpawn {
			continue
		}
		spawnTS[ev.Attempt] = ev.TS
		end := last
		for _, later := range evs[i+1:] {
			if later.Type == EventSpawn || later.Type == EventProgress {
				continue
			}
			end = later.TS
			break
		}
		out = append(out, mergedEvent{
			Tid: 0, Ts: micros(ev.TS - t0), Ph: "X", Dur: micros(end - ev.TS),
			Cat: "daemon", Name: fmt.Sprintf("attempt %d", ev.Attempt),
		})
	}

	// Every other daemon record becomes an instant, so state transitions,
	// kills, adoptions and worker heartbeats all land on the timeline.
	for _, ev := range evs {
		if ev.Type == EventSpawn {
			continue
		}
		name := ev.Type
		if ev.Type == EventState {
			name = "state:" + ev.State
		}
		args, _ := json.Marshal(ev)
		out = append(out, mergedEvent{
			Tid: 0, Ts: micros(ev.TS - t0), Ph: "i", S: "t",
			Cat: "daemon", Name: name, Args: args,
		})
	}

	// Attempt lanes. Failed attempts' traces are archived as
	// trace-attempt-N.jsonl; the final attempt keeps trace.jsonl, so it
	// belongs to the highest spawned attempt without an archive.
	maxAttempt := 0
	for n := range spawnTS {
		if n > maxAttempt {
			maxAttempt = n
		}
	}
	lanes := map[int]string{0: "daemon"}
	for n := 1; n <= maxAttempt; n++ {
		path := filepath.Join(dir, attemptTraceFile(n))
		if _, err := os.Stat(path); err != nil {
			if n != maxAttempt {
				continue
			}
			path = filepath.Join(dir, traceFile)
		}
		epoch := spawnTS[n] - t0
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		lanes[n] = fmt.Sprintf("attempt %d pipeline", n)
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for sc.Scan() {
			var line workerTraceLine
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				continue
			}
			me := mergedEvent{
				Tid: n, Ts: micros(epoch + line.TS),
				Cat: line.Cat, Name: line.Name, Args: line.Fields,
			}
			if line.Type == "span" {
				me.Ph, me.Dur = "X", micros(line.Dur)
			} else {
				me.Ph, me.S = "i", "t"
			}
			out = append(out, me)
		}
		f.Close()
	}

	// Lane metadata last, in tid order, so every tid Perfetto encounters
	// has a human name ("attempt 2 pipeline", not a bare number).
	tids := make([]int, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		args, _ := json.Marshal(map[string]string{"name": lanes[tid]})
		out = append(out, mergedEvent{
			Tid: tid, Ph: "M", Cat: "__metadata", Name: "thread_name", Args: args,
		})
	}
	return out
}
