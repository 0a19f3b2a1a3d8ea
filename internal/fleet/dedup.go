package fleet

import (
	"sync"

	"predabs/internal/server"
)

// Run states. A run is the unit of backend work: all jobs admitted
// with the same content key observe one run's verdict.
const (
	runPending  = "pending"  // queued for a dispatcher (fresh or after lease expiry)
	runWatching = "watching" // dispatched; heartbeat stream being consumed
	runDone     = "done"     // backend verdict recorded
	runFailed   = "failed"   // dispatch budget exhausted; outcome unknown
)

// run is one content-addressed verification run. Jobs hold a pointer
// to their run forever; the dedup table holds one only until the run
// fails (failure invalidation — see runTable.complete).
type run struct {
	key  string // server.SpecHash of spec
	spec server.JobSpec

	mu         sync.Mutex
	state      string
	backend    string // backend base URL while dispatched
	backendID  string // backend-local job ID while dispatched
	dispatches int    // 1-based dispatch count across frontend restarts
	resumed    bool   // re-enqueued from the ledger after a restart
	exit       int
	outcome    string
	stdout     string
	errmsg     string

	done chan struct{} // closed exactly once, at the terminal transition
}

func newRun(key string, spec server.JobSpec) *run {
	return &run{key: key, spec: spec, state: runPending, done: make(chan struct{})}
}

// runTable is the content-addressed dedup index with single-flight
// semantics: the first Submit of a key creates the run, concurrent and
// later identical submits join it, and exactly one dispatcher drives
// it. Completed successful runs stay in the table, so a later
// identical submit is answered from the recorded verdict without a
// backend attempt.
type runTable struct {
	mu   sync.Mutex
	runs map[string]*run
}

func newRunTable() *runTable {
	return &runTable{runs: map[string]*run{}}
}

// admit returns the run for key, creating it when absent. created
// reports whether the caller must journal the spec and enqueue the run
// for dispatch.
func (t *runTable) admit(key string, spec server.JobSpec) (r *run, created bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.runs[key]; r != nil {
		return r, false
	}
	r = newRun(key, spec)
	t.runs[key] = r
	return r, true
}

// complete records the run's terminal verdict and wakes every waiter.
// A failed run is removed from the table — "unknown by exhaustion"
// must never be served from cache to a future submit (cached-unknown
// poisoning); the jobs already joined still observe the failure
// through their run pointer.
func (t *runTable) complete(r *run, state string, exit int, outcome, stdout, errmsg string) {
	r.mu.Lock()
	r.state = state
	r.exit, r.outcome, r.stdout, r.errmsg = exit, outcome, stdout, errmsg
	r.mu.Unlock()
	if state == runFailed {
		t.mu.Lock()
		if t.runs[r.key] == r {
			delete(t.runs, r.key)
		}
		t.mu.Unlock()
	}
	close(r.done)
}

// size returns the number of live dedup entries.
func (t *runTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.runs)
}
