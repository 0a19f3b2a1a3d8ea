// Package checkpoint makes the SLAM refinement loop crash-safe: an
// append-only, checksummed on-disk journal records, per CEGAR iteration,
// the predicate pool and a spill of the prover's memo cache. A later run
// pointed at the same state directory validates the journal, replays the
// last good iteration and continues from there with a warm prover cache
// — a resumed run produces byte-identical final reports to an
// uninterrupted one.
//
// The journal is one owner of the package's framed record log, Log,
// which also carries predabsd's job ledger, its per-job event logs and
// the fleet ledger: every durable store opens, repairs, appends and
// closes through the same code.
//
// # Journal format
//
// One file, journal.predabs, inside the state directory: a Log (the
// package's framed record log, shared with every other durable store)
// under the journal's magic:
//
//	magic "PREDABSJNL1\x00"                       (12 bytes)
//	record*                                       (append-only)
//
//	record := len(u32 LE) | crc32(u32 LE) | payload
//
// where crc32 is IEEE over the payload bytes and the payload is one JSON
// object discriminated by "type": a "header" record (format version +
// compatibility hash) first, then "iteration" records (one per commit
// point) and "final" records (run outcome). Iteration records spill the
// prover cache as a delta against everything already journaled, so the
// file grows with new verdicts only.
//
// # Corruption handling
//
// Every record is validated by length and CRC on replay. A torn or
// corrupted record — a crash mid-append, a truncated file, a flipped bit
// — invalidates that record and EVERYTHING after it: the journal is
// truncated back to the last good record and the run resumes from the
// most recent intact commit. A corrupted magic/header, or a
// compatibility-hash mismatch (different program, spec, tool version or
// deterministic limit flags), rejects the whole journal with a typed
// error so the caller can fall back to a cold start with a clear
// diagnostic. The header is checked by a read-only pass before anything
// may repair the tail, so a rejected journal is never written to.
// Nothing after a checksum failure is ever trusted.
//
// # Soundness under crashes
//
// The journal only ever persists facts that are independent of the
// crash schedule: the predicate pool (candidate predicates are
// heuristics — any pool yields a sound abstraction) and fully decided
// prover verdicts; signatures are recomputed from the pool on resume.
// Verdicts abandoned on a wall-clock timeout or a cancellation are never
// cached in memory (internal/prover) and therefore never reach disk, so
// no kill/resume schedule can launder a degraded "could not prove" —
// much less upgrade a buggy program to Verified. The kill/resume chaos
// harness in internal/faultinject asserts this against the soundness
// oracle.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"

	"predabs/internal/prover"
)

// JournalName is the journal's file name inside the state directory.
const JournalName = "journal.predabs"

// magic identifies a predabs checkpoint journal (format 1).
const magic = "PREDABSJNL1\x00"

// CorruptError reports a journal whose magic or header cannot be
// trusted; the caller should cold-start (Create) with a diagnostic.
type CorruptError struct {
	Path   string
	Detail string
}

// Error names the journal and what is corrupt in it.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s: corrupted journal (%s)", e.Path, e.Detail)
}

// IncompatibleError reports a valid journal written for a different
// (program, spec, tool version, limit flags) combination.
type IncompatibleError struct {
	Path string
	Want string
	Got  string
}

// Error names the journal and both compatibility hashes.
func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("checkpoint: %s: journal belongs to a different run (compatibility hash %.12s…, want %.12s…)",
		e.Path, e.Got, e.Want)
}

// ScopePreds is one scope's predicate pool slice, in insertion order —
// the order the CEGAR loop replays it in, so a resumed pool is
// indistinguishable from the live one.
type ScopePreds struct {
	Scope string   `json:"scope"`
	Preds []string `json:"preds"`
}

// Counters are the cumulative deterministic run counters at a commit
// point; a resumed run adds its own deltas on top so final reports
// match an uninterrupted run's.
type Counters struct {
	ProverCalls           int            `json:"prover_calls"`
	CacheHits             int            `json:"cache_hits"`
	ModelAnswers          int            `json:"model_answers,omitempty"`
	CheckIterations       int            `json:"check_iterations"`
	CheckIterationsByProc map[string]int `json:"check_iterations_by_proc,omitempty"`

	// Model-enumeration engine counters, all zero (and omitted from the
	// journal) under the default cube engine.
	ProverSessions  int `json:"prover_sessions,omitempty"`
	SessionChecks   int `json:"session_checks,omitempty"`
	ModelsExtracted int `json:"models_extracted,omitempty"`
	BlockingClauses int `json:"blocking_clauses,omitempty"`
}

// ProverCounters journals the prover counters of s a resume continues
// from. Give-ups, search and theory effort and solver time are not
// journaled: they count one process's work only. Model answers are, with
// the calls they are part of, so that a resumed run's cache misses count
// searches only.
func ProverCounters(s prover.Stats) Counters {
	return Counters{
		ProverCalls:     s.ProverCalls,
		CacheHits:       s.CacheHits,
		ModelAnswers:    s.ModelAnswers,
		ProverSessions:  s.ProverSessions,
		SessionChecks:   s.SessionChecks,
		ModelsExtracted: s.ModelsExtracted,
		BlockingClauses: s.BlockingClauses,
	}
}

// Plus returns s, the counters of a process that resumed from c, with
// the journaled prover totals added: the totals an uninterrupted run
// reports.
func (c Counters) Plus(s prover.Stats) prover.Stats {
	s.ProverCalls += c.ProverCalls
	s.CacheHits += c.CacheHits
	s.ModelAnswers += c.ModelAnswers
	s.ProverSessions += c.ProverSessions
	s.SessionChecks += c.SessionChecks
	s.ModelsExtracted += c.ModelsExtracted
	s.BlockingClauses += c.BlockingClauses
	return s
}

// IterationRecord is one commit point: the full state needed to resume
// the CEGAR loop after this iteration. Cache carries the FULL prover
// cache at the boundary; the Manager spills only the delta against
// records already journaled.
type IterationRecord struct {
	Iter     int
	Pool     []ScopePreds
	Cache    []prover.CacheEntry
	Counters Counters
}

// Snapshot is the replayed journal state: the last good iteration
// record plus the union of every cache spill.
type Snapshot struct {
	// Iter is the last committed iteration; resume starts at Iter+1.
	Iter int
	Pool []ScopePreds
	// Cache is the union of all journaled spills, in canonical (sorted
	// by key) order.
	Cache    []prover.CacheEntry
	Counters Counters
	// Outcome is the last journaled final outcome ("" if the previous
	// run never completed).
	Outcome string
}

// journal payload shapes (the on-disk JSON).
type headerPayload struct {
	Type    string `json:"type"` // "header"
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	Hash    string `json:"hash"`
}

type iterationPayload struct {
	Type     string              `json:"type"` // "iteration"
	Iter     int                 `json:"iter"`
	Pool     []ScopePreds        `json:"pool"`
	Cache    []prover.CacheEntry `json:"cache"`
	Counters Counters            `json:"counters"`
}

type finalPayload struct {
	Type    string `json:"type"` // "final"
	Outcome string `json:"outcome"`
	Limit   string `json:"limit,omitempty"`
}

// formatVersion is the journal payload schema version; bumped on any
// incompatible change (it also feeds the compatibility hash).
const formatVersion = 1

// Manager owns one open journal, a Log under the journal's magic: it
// folds existing state on Open and appends commit records durably (each
// append is fsynced before it returns). Safe for concurrent use, though
// the CEGAR loop commits from a single goroutine.
type Manager struct {
	readOnly bool

	mu        sync.Mutex
	log       *Log            // nil when read-only, inert or closed
	persisted map[string]bool // cache keys already journaled
	snap      *Snapshot
	warnings  []string
	commits   int
	lastErr   error
}

// Open validates and replays the journal under dir over fsys (nil is
// the real filesystem) for the given compatibility key. A missing
// journal is created fresh (cold start). A journal whose magic/header
// cannot be validated returns *CorruptError; a valid journal for a
// different key returns *IncompatibleError — in both cases the file is
// left untouched and the caller decides whether to Create over it. A
// torn or corrupted tail is truncated (never trusted) and noted in
// Warnings; replay resumes from the last intact record.
//
// readOnly opens for warm-start only: nothing is written, not even the
// truncation repair of a torn tail (the tail is simply ignored).
func Open(fsys FS, dir string, key CompatKey, readOnly bool) (*Manager, error) {
	path := filepath.Join(dir, JournalName)
	m := &Manager{readOnly: readOnly, persisted: map[string]bool{}}
	// The read-only fold validates the header before anything may
	// repair the tail.
	warnings, err := m.replay(fsys, path, key)
	switch {
	case errors.Is(err, fs.ErrNotExist) && readOnly:
		// Nothing to resume and nothing may be written: an inert
		// manager whose commits are no-ops.
		return m, nil
	case errors.Is(err, fs.ErrNotExist):
		return Create(fsys, dir, key)
	case err != nil:
		return nil, err
	}
	if !readOnly {
		if m.log, err = OpenLog(fsys, path, magic, nil); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		warnings = m.log.Warnings()
	}
	for _, w := range warnings {
		m.warnings = append(m.warnings, "journal "+w)
	}
	return m, nil
}

// Create starts a fresh journal under dir over fsys (nil is the real
// filesystem) holding just the header record for key, replacing any
// previous journal. The replacement commits by rename, so a crash
// mid-create leaves the previous journal, never a half-written one.
func Create(fsys FS, dir string, key CompatKey) (*Manager, error) {
	fsys = orOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	hdr, err := json.Marshal(headerPayload{Type: "header", Version: formatVersion, Tool: key.Tool, Hash: key.Hash()})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, JournalName)
	if err := RewriteLog(fsys, path, magic, [][]byte{hdr}); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	log, err := OpenLog(fsys, path, magic, nil)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Manager{log: log, persisted: map[string]bool{}}, nil
}

// replay folds the journal at path read-only. The first record must be
// a header for key; then every iteration record adds its cache spill
// to persisted and the last one, with the last final outcome, becomes
// the snapshot. It returns the warning for an ignored torn tail.
func (m *Manager) replay(fsys FS, path string, key CompatKey) ([]string, error) {
	header := false // the first record has been seen
	var reject error
	var last *iterationPayload
	outcome := ""
	warnings, err := ReplayLog(fsys, path, magic, func(payload []byte) {
		if !header {
			header = true
			reject = checkHeader(path, payload, key)
			return
		}
		if reject != nil {
			return
		}
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(payload, &probe) != nil {
			return
		}
		switch probe.Type {
		case "iteration":
			var it iterationPayload
			if json.Unmarshal(payload, &it) == nil && it.Iter > 0 {
				for _, e := range it.Cache {
					m.persisted[e.Key] = e.Val
				}
				last = &it
			}
		case "final":
			var fin finalPayload
			if json.Unmarshal(payload, &fin) == nil {
				outcome = fin.Outcome
			}
		}
	})
	if reject != nil {
		return nil, reject
	}
	if err != nil {
		return nil, err
	}
	if !header {
		return nil, &CorruptError{Path: path, Detail: "unreadable header record"}
	}
	if last != nil {
		snap := &Snapshot{
			Iter:     last.Iter,
			Pool:     last.Pool,
			Counters: last.Counters,
			Outcome:  outcome,
		}
		snap.Cache = make([]prover.CacheEntry, 0, len(m.persisted))
		for k, v := range m.persisted {
			snap.Cache = append(snap.Cache, prover.CacheEntry{Key: k, Val: v})
		}
		sort.Slice(snap.Cache, func(i, j int) bool { return snap.Cache[i].Key < snap.Cache[j].Key })
		m.snap = snap
	}
	return warnings, nil
}

// checkHeader validates the journal's first record against key.
func checkHeader(path string, payload []byte, key CompatKey) error {
	var hdr headerPayload
	if json.Unmarshal(payload, &hdr) != nil || hdr.Type != "header" {
		return &CorruptError{Path: path, Detail: "malformed header record"}
	}
	if hdr.Version != formatVersion {
		return &CorruptError{Path: path, Detail: fmt.Sprintf("journal format version %d, want %d", hdr.Version, formatVersion)}
	}
	if want := key.Hash(); hdr.Hash != want {
		return &IncompatibleError{Path: path, Want: want, Got: hdr.Hash}
	}
	return nil
}

// Snapshot returns the replayed resume state, or nil when the journal
// held no committed iteration (cold start).
func (m *Manager) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap
}

// Warnings lists the torn tail found on Open: truncated, or ignored
// when read-only.
func (m *Manager) Warnings() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.warnings...)
}

// ReadOnly reports whether commits are disabled (-no-persist).
func (m *Manager) ReadOnly() bool { return m != nil && m.readOnly }

// Commits reports how many iteration records this manager appended.
func (m *Manager) Commits() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits
}

// Err returns the last append error, if any. Persistence failures
// never abort the verification run; callers surface them at exit.
func (m *Manager) Err() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// AppendIteration durably commits one iteration record: the cache spill
// is reduced to the delta against everything already journaled, the
// frame is appended, and the file is fsynced before returning. Nil,
// read-only and closed managers are no-ops. After any failed append the
// journal is degraded (see Log): persistence stays best-effort — the
// verification run continues and surfaces Err at exit; only durability
// is lost.
func (m *Manager) AppendIteration(rec IterationRecord) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	if err := m.log.Err(); err != nil {
		return err
	}
	delta := make([]prover.CacheEntry, 0, 16)
	for _, e := range rec.Cache {
		if _, ok := m.persisted[e.Key]; !ok {
			delta = append(delta, e)
		}
	}
	payload, err := json.Marshal(iterationPayload{
		Type: "iteration", Iter: rec.Iter, Pool: rec.Pool,
		Cache: delta, Counters: rec.Counters,
	})
	if err != nil {
		m.lastErr = err
		return err
	}
	m.commits++
	crashHook(m.commits, m.log, payload)
	if err := m.log.Append(payload); err != nil {
		m.lastErr = err
		return err
	}
	for _, e := range delta {
		m.persisted[e.Key] = e.Val
	}
	return nil
}

// AppendFinal durably journals the run outcome (and the limit that
// stopped it, if any). Called on every loop exit, including the
// deadline retreat, so a -timeout run's last commit is flushed before
// the process exits 2.
func (m *Manager) AppendFinal(outcome, limit string) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	payload, err := json.Marshal(finalPayload{Type: "final", Outcome: outcome, Limit: limit})
	if err == nil {
		err = m.log.Append(payload)
	}
	if err != nil {
		m.lastErr = err
	}
	return err
}

// Close syncs and closes the journal.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.log.Close()
	m.log = nil
	return err
}
