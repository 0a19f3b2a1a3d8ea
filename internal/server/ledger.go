package server

import (
	"sort"
	"strconv"
	"strings"

	"predabs/internal/checkpoint"
)

// ledgerMagic stamps the job ledger (format 1); the framing underneath
// is checkpoint.Log's CRC discipline, so a crash mid-append loses at
// most the record being written.
const ledgerMagic = "PREDABSLGR1\x00"

// LedgerName is the ledger's file name inside the daemon data dir.
const LedgerName = "ledger.predabs"

// ledgerRecord is one append-only ledger event. "admit" carries the
// full normalized job spec (the durable copy that survives a daemon
// crash before the worker ever ran); "attempt" increments the job's
// persistent attempt count so the retry budget is honoured across
// restarts; "preempt" refunds an attempt whose worker the daemon itself
// SIGKILLed during shutdown (the attempt never got to finish, so it
// must not burn retry budget); "done" is terminal; "snapshot" is the
// compaction record a restart writes when the ledger outgrows its size
// threshold — every terminal job folded into one record, keeping the
// spec hash (the identity the status API and result binding need) but
// not the spec text, which is what bounds the fold's size.
type ledgerRecord struct {
	Type    string   `json:"type"` // "admit" | "attempt" | "preempt" | "done" | "snapshot"
	ID      string   `json:"id,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`    // admit
	Attempt int      `json:"attempt,omitempty"` // attempt, preempt
	State   string   `json:"state,omitempty"`   // done: StateDone | StateFailed
	Exit    int      `json:"exit,omitempty"`    // done
	Outcome string   `json:"outcome,omitempty"` // done
	Detail  string   `json:"detail,omitempty"`  // done (failure reason)

	// Jobs is the snapshot payload: every terminal job at fold time, in
	// admission order.
	Jobs []snapshotJob `json:"jobs,omitempty"`
}

// snapshotJob is one terminal job folded into a snapshot record: the
// durable verdict plus the spec hash standing in for the spec text.
type snapshotJob struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	Attempts int    `json:"attempts,omitempty"`
	State    string `json:"state"`
	Exit     int    `json:"exit,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// replayedJob is one job's folded ledger state after replay. A job
// replayed from a snapshot record has hash but a zero spec; only
// terminal jobs are ever snapshot, so every resumable job keeps its
// full spec.
type replayedJob struct {
	spec     JobSpec
	hash     string
	attempts int
	done     bool
	state    string
	exit     int
	outcome  string
	detail   string
}

// ledgerState is the ledger's fold: per-job state with admission order
// preserved, plus the per-job records each job contributed (what a
// snapshot would elide).
type ledgerState struct {
	jobs  map[string]*replayedJob
	order []string
	recs  map[string]int
}

// fold applies one replayed record to the per-job state, counting each
// per-job record (admit, attempt, preempt, done) against its job.
func (st *ledgerState) fold(rec ledgerRecord) {
	switch rec.Type {
	case "admit":
		if rec.ID == "" || rec.Spec == nil {
			return
		}
		if _, ok := st.jobs[rec.ID]; !ok {
			st.order = append(st.order, rec.ID)
		}
		st.jobs[rec.ID] = &replayedJob{spec: *rec.Spec, hash: SpecHash(*rec.Spec)}
	case "attempt":
		if j, ok := st.jobs[rec.ID]; ok && rec.Attempt > j.attempts {
			j.attempts = rec.Attempt
		}
	case "preempt":
		if j, ok := st.jobs[rec.ID]; ok && rec.Attempt == j.attempts {
			j.attempts--
		}
	case "done":
		if j, ok := st.jobs[rec.ID]; ok {
			j.done = true
			j.state, j.exit, j.outcome, j.detail = rec.State, rec.Exit, rec.Outcome, rec.Detail
		}
	case "snapshot":
		for _, sj := range rec.Jobs {
			if sj.ID == "" {
				continue
			}
			if _, ok := st.jobs[sj.ID]; !ok {
				st.order = append(st.order, sj.ID)
			}
			st.jobs[sj.ID] = &replayedJob{
				hash: sj.Hash, attempts: sj.Attempts, done: true,
				state: sj.State, exit: sj.Exit, outcome: sj.Outcome, detail: sj.Detail,
			}
		}
		return
	default:
		return
	}
	st.recs[rec.ID]++
}

// compact builds the new-generation ledger: one snapshot record folding
// every terminal job, then each live job's admit (full spec) and
// attempt count, all in admission order. It returns nil when no
// terminal job has a per-job record left to elide.
func (st *ledgerState) compact() []ledgerRecord {
	foldable := 0
	for id, j := range st.jobs {
		if j.done {
			foldable += st.recs[id]
		}
	}
	if foldable == 0 {
		return nil
	}
	snap := ledgerRecord{Type: "snapshot"}
	var live []ledgerRecord
	for _, id := range st.order {
		j := st.jobs[id]
		if j == nil {
			continue
		}
		if j.done {
			snap.Jobs = append(snap.Jobs, snapshotJob{
				ID: id, Hash: j.hash, Attempts: j.attempts,
				State: j.state, Exit: j.exit, Outcome: j.outcome, Detail: j.detail,
			})
			continue
		}
		spec := j.spec
		live = append(live, ledgerRecord{Type: "admit", ID: id, Spec: &spec})
		if j.attempts > 0 {
			live = append(live, ledgerRecord{Type: "attempt", ID: id, Attempt: j.attempts})
		}
	}
	return append([]ledgerRecord{snap}, live...)
}

// openLedger opens (or creates) the ledger at path and folds its
// records into per-job state, returned with admission order preserved.
// When snapshotBytes > 0 and the log is larger, terminal jobs are
// folded into one snapshot record (see checkpoint.OpenLedger). A ledger
// whose magic cannot be validated is reported via
// *checkpoint.CorruptError so the caller can quarantine it.
func openLedger(fsys checkpoint.FS, path string, snapshotBytes int64) (*checkpoint.Ledger[ledgerRecord], map[string]*replayedJob, []string, []string, error) {
	l, st, warnings, err := checkpoint.OpenLedger(fsys, path, ledgerMagic, snapshotBytes,
		func() *ledgerState {
			return &ledgerState{jobs: map[string]*replayedJob{}, recs: map[string]int{}}
		},
		(*ledgerState).fold, (*ledgerState).compact)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return l, st.jobs, st.order, warnings, nil
}

// nextJobSeq returns the successor of the highest job sequence number
// present in the replayed ledger, so restarted daemons never reuse IDs.
func nextJobSeq(jobs map[string]*replayedJob) int {
	max := 0
	for id := range jobs {
		// Not Sscanf("job-%06d"): the %06d width stops parsing at six
		// digits, which would wrap the sequence past job-999999 and
		// recycle live IDs on restart.
		rest, ok := strings.CutPrefix(id, "job-")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(rest); err == nil && n > max {
			max = n
		}
	}
	return max + 1
}

// pendingOrder filters order down to admitted-but-unfinished jobs.
func pendingOrder(jobs map[string]*replayedJob, order []string) []string {
	var pending []string
	for _, id := range order {
		if j := jobs[id]; j != nil && !j.done {
			pending = append(pending, id)
		}
	}
	sort.Strings(pending)
	return pending
}
