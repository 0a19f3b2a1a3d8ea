package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"predabs/internal/checkpoint"
	"predabs/internal/server"
)

// fleetMagic stamps the frontend's durable ledger (format 1). The
// framing underneath is checkpoint.Log's CRC discipline: a SIGKILL
// mid-append loses at most the record being written, and a restart
// replays exactly the records that were durable.
const fleetMagic = "PREDABSFLT1\x00"

// LedgerName is the fleet ledger's file name inside the frontend data
// directory.
const LedgerName = "fleet.predabs"

// Fleet ledger record types. The ordering discipline mirrors the
// single-node daemon's ledger: every externally visible transition is
// journaled durably BEFORE the in-memory state changes, so a frontend
// killed at any commit point restarts into a state it already promised.
const (
	// RecAdmit: a job was accepted. Carries the full spec on the first
	// admit of a content key; dedup joins (Dedup=true) reference the
	// run already admitted under the same key.
	RecAdmit = "admit"
	// RecDispatch: the key's run was submitted to a backend, which
	// returned a backend-local job ID. Dispatch is the 1-based count of
	// dispatches across the run's lifetime (restarts included).
	RecDispatch = "dispatch"
	// RecLease: the run's backend lease changed; the only transition
	// journaled is Lease="expired" (heartbeats stopped, the backend was
	// declared dead, or an adoption probe failed), which detaches the
	// run from Backend/BackendID and licenses a re-dispatch.
	RecLease = "lease"
	// RecAdopt: after a frontend restart, the replayed backend job was
	// probed, its spec hash matched the run's key, and the frontend
	// re-attached to it instead of re-dispatching.
	RecAdopt = "adopt"
	// RecVerdict: the run finished. State is StateDone (a backend
	// verdict, byte-identical stdout recorded) or StateFailed (dispatch
	// budget exhausted; outcome "unknown" — the sound retreat). A done
	// verdict stays reusable for later identical submits; a failed one
	// invalidates the dedup entry so the next submit runs fresh.
	RecVerdict = "verdict"
	// RecSnapshot: a compacted terminal run. Written only by the
	// restart-time ledger fold (never by live appends): it replaces the
	// run's dispatch/lease/adopt records plus its verdict with ONE
	// record carrying the verdict payload, the original verdict's Seq
	// and TS, and Dropped = how many intermediate records were elided —
	// the explicit truncation declaration that keeps the synthesized
	// per-job event streams resumable (see synthesizeEvents). The run's
	// creating admit survives the fold with its Spec stripped (a
	// terminal run is never re-dispatched), and dedup admits survive
	// verbatim (they anchor the joined jobs' streams).
	RecSnapshot = "snapshot"
)

// Record is one fleet ledger entry. Seq is assigned at append time and
// is dense and strictly increasing across frontend restarts; per-job
// event streams are synthesized from these records (see events.go).
type Record struct {
	Seq  uint64 `json:"seq"`
	TS   int64  `json:"ts"` // unix nanoseconds
	Type string `json:"type"`
	// Job is the frontend job ID (admit records only; every other
	// record is keyed by the content address and applies to all jobs
	// deduplicated onto the run).
	Job string `json:"job,omitempty"`
	// Key is the run's content address: server.SpecHash of the
	// normalized spec.
	Key string `json:"key,omitempty"`
	// Spec is the full job spec; present only on the admit that created
	// the run (Dedup=false), so replay can re-dispatch it.
	Spec *server.JobSpec `json:"spec,omitempty"`
	// Dedup marks an admit that joined an existing run.
	Dedup bool `json:"dedup,omitempty"`
	// Backend is the backend base URL; BackendID the backend-local job
	// ID (dispatch/lease/adopt records).
	Backend   string `json:"backend,omitempty"`
	BackendID string `json:"backend_id,omitempty"`
	// Dispatch is the 1-based dispatch ordinal (dispatch records).
	Dispatch int `json:"dispatch,omitempty"`
	// Lease is "expired" on lease records.
	Lease string `json:"lease,omitempty"`
	// Verdict payload (verdict and snapshot records).
	State    string `json:"state,omitempty"`
	ExitCode int    `json:"exit_code,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Stdout   string `json:"stdout,omitempty"`
	Detail   string `json:"detail,omitempty"`
	// Dropped (snapshot records) counts the dispatch/lease/adopt
	// records the compaction elided between the run's creating admit
	// and its verdict. Event synthesis advances the per-job sequence by
	// Dropped before emitting the verdict, so a client resuming with
	// ?after=N lands exactly where the uncompacted stream would have
	// put it.
	Dropped uint64 `json:"dropped,omitempty"`
}

// CrashEnv names the test-only environment variable that SIGKILLs the
// frontend immediately after a chosen ledger append becomes durable,
// for the fleet-chaos harness. Value "<type>:<n>" kills the process
// after the n'th (1-based) record of that type is on disk — e.g.
// "dispatch:1" dies right after the first dispatch commit, the exact
// point where the frontend has promised a backend attempt it has not
// yet observed.
const CrashEnv = "PREDABS_FLEET_CRASH"

// fleetLedger is the frontend's checkpoint.Ledger plus the in-memory
// record list the event synthesizer reads. Appends are serialized under
// mu so Seq order is append order; Seq continues from the replayed
// maximum so restarts never duplicate one.
type fleetLedger struct {
	*checkpoint.Ledger[Record]
	mu      sync.Mutex
	seq     uint64
	records []Record // every durable record, replayed + appended

	crashType  string // CrashEnv hook
	crashAfter int
	crashSeen  int
}

// replayRun is one content-addressed run folded out of the ledger. spec
// is zero for a compacted terminal run (its creating admit was stripped
// — the run will never be re-dispatched); key is always present.
type replayRun struct {
	key        string
	spec       server.JobSpec
	dispatches int
	backend    string // last dispatch/adopt target; "" after lease expiry
	backendID  string
	verdict    *Record // terminal verdict or snapshot, nil while in flight
}

// replayJob is one admitted frontend job in admit order. admitSeq is
// the job's own admit record; runStart the creating admit of the run
// it joined — the event synthesizer's window anchors (see events.go).
type replayJob struct {
	id       string
	key      string
	admitSeq uint64
	runStart uint64
}

// replayState is the fold of a full ledger replay. Runs are keyed by
// their creating-admit sequence, not by content key: a failed run may
// be replaced by a fresh one under the same key, and the jobs that
// joined the failed run must keep observing ITS verdict, not the
// replacement's.
type replayState struct {
	seq      uint64   // highest replayed Seq
	records  []Record // every replayed record, in log order
	jobs     []replayJob
	runs     map[uint64]*replayRun // creating-admit seq -> run
	runStart map[string]uint64     // key -> live run's creating admit seq
}

// openLedger opens (or creates) dir's fleet ledger, folding every
// durable record into the returned replay state (see
// checkpoint.OpenLedger for torn tails, bad magic and read errors).
//
// When snapshotBytes > 0 and the replayed log exceeds it, terminal runs
// are folded in place: each keeps its admits (creating admit stripped
// of its spec) plus one RecSnapshot record, while in-flight runs keep
// every record verbatim.
func openLedger(fsys checkpoint.FS, dir string, snapshotBytes int64) (*fleetLedger, *replayState, []string, error) {
	l := &fleetLedger{}
	if v := os.Getenv(CrashEnv); v != "" {
		typ, n, ok := strings.Cut(v, ":")
		if !ok {
			return nil, nil, nil, fmt.Errorf("%s: %q: want \"<type>:<n>\"", CrashEnv, v)
		}
		after, err := strconv.Atoi(n)
		if err != nil || after < 1 {
			return nil, nil, nil, fmt.Errorf("%s: %q: want a positive count", CrashEnv, v)
		}
		l.crashType, l.crashAfter = typ, after
	}
	led, st, warnings, err := checkpoint.OpenLedger(fsys, filepath.Join(dir, LedgerName), fleetMagic, snapshotBytes,
		func() *replayState {
			return &replayState{runs: map[uint64]*replayRun{}, runStart: map[string]uint64{}}
		},
		(*replayState).fold, (*replayState).compact)
	if err != nil {
		return nil, nil, nil, err
	}
	l.Ledger, l.seq, l.records = led, st.seq, st.records
	return l, st, warnings, nil
}

// compact rebuilds the ledger's record list with every terminal run
// folded: its creating admit kept spec-less, its dedup admits kept
// verbatim, its dispatch/lease/adopt records elided, and its verdict
// replaced by a RecSnapshot declaring the elision. Records of in-flight
// runs — and any record the fold could not attribute — survive
// byte-identically. Global sequence numbers are preserved (the
// compacted log has declared gaps, never renumbering), so restarts
// continue the sequence and synthesized event streams keep their
// pre-compaction numbering. Returns nil when no record would be elided
// or shrunk.
func (st *replayState) compact() []Record {
	terminal := map[uint64]bool{}
	for start, rr := range st.runs {
		if rr.verdict != nil {
			terminal[start] = true
		}
	}
	cur := map[string]uint64{}     // key -> creating admit seq at this point in the log
	dropped := map[uint64]uint64{} // creating admit seq -> elided record count
	var out []Record
	elided := 0
	for _, rec := range st.records {
		switch rec.Type {
		case RecAdmit:
			if !rec.Dedup {
				cur[rec.Key] = rec.Seq
				if terminal[rec.Seq] && rec.Spec != nil {
					rec.Spec = nil // a terminal run is never re-dispatched
					elided++
				}
			}
		case RecDispatch, RecLease, RecAdopt:
			if start := cur[rec.Key]; terminal[start] {
				dropped[start]++
				elided++
				continue
			}
		case RecVerdict:
			if start := cur[rec.Key]; terminal[start] && dropped[start] > 0 {
				rec.Type = RecSnapshot
				rec.Dropped = dropped[start]
			}
		}
		// RecSnapshot from an earlier fold, or future types: keep.
		out = append(out, rec)
	}
	if elided == 0 {
		return nil
	}
	return out
}

// fold applies one replayed record to the state.
func (st *replayState) fold(rec Record) {
	st.seq = max(st.seq, rec.Seq)
	st.records = append(st.records, rec)
	switch rec.Type {
	case RecAdmit:
		if !rec.Dedup && rec.Key != "" {
			// The creating admit (re)starts the key's run: a fresh spec
			// after a failed verdict replaces the invalidated entry. A
			// spec-less creating admit is a compacted terminal run (its
			// snapshot record follows); the run keeps a zero spec, which
			// is safe because it is never re-dispatched.
			r := &replayRun{key: rec.Key}
			if rec.Spec != nil {
				r.spec = *rec.Spec
			}
			st.runs[rec.Seq] = r
			st.runStart[rec.Key] = rec.Seq
		}
		st.jobs = append(st.jobs, replayJob{id: rec.Job, key: rec.Key,
			admitSeq: rec.Seq, runStart: st.runStart[rec.Key]})
	case RecDispatch:
		if r := st.live(rec.Key); r != nil {
			r.dispatches = rec.Dispatch
			r.backend, r.backendID = rec.Backend, rec.BackendID
		}
	case RecAdopt:
		if r := st.live(rec.Key); r != nil {
			r.backend, r.backendID = rec.Backend, rec.BackendID
		}
	case RecLease:
		if r := st.live(rec.Key); r != nil {
			r.backend, r.backendID = "", ""
		}
	case RecVerdict, RecSnapshot:
		if r := st.live(rec.Key); r != nil {
			rec := rec
			r.verdict = &rec
		}
	}
}

// live returns key's current run during the fold.
func (st *replayState) live(key string) *replayRun {
	return st.runs[st.runStart[key]]
}

// Append durably writes one record, assigns its sequence number, and
// retains it for event synthesis. The CrashEnv hook fires AFTER the
// fsync, so the chaos harness always dies with the record on disk —
// the restart must honor it.
func (l *fleetLedger) Append(rec Record) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	rec.Seq = l.seq
	if rec.TS == 0 {
		rec.TS = time.Now().UnixNano()
	}
	if err := l.Ledger.Append(rec); err != nil {
		return Record{}, err
	}
	l.records = append(l.records, rec)
	if rec.Type == l.crashType {
		l.crashSeen++
		if l.crashSeen >= l.crashAfter {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // never continue past the crash point
		}
	}
	return rec, nil
}

// snapshot returns the durable record list (shared backing array; the
// slice is append-only, so a snapshot's prefix never mutates).
func (l *fleetLedger) snapshot() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records[:len(l.records):len(l.records)]
}
