package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// ErrLedgerClosed marks an Append that lost the race with the owner's
// Close; admission paths map it to their draining error.
var ErrLedgerClosed = errors.New("ledger closed")

// Ledger is a Log of JSON records of type R whose owner folds the full
// history into in-memory state at open. It is the one lifecycle behind
// predabsd's job ledger and the fleet frontend's ledger: open, replay,
// fold, compact once past a byte threshold, re-replay, then append,
// report size and degradation, and close, all under one mutex.
type Ledger[R any] struct {
	mu        sync.Mutex
	log       *Log // nil once closed
	reclaimed int64
}

// OpenLedger opens (or creates) the ledger at path and folds every
// intact record, JSON-decoded into R, into a fresh newState(). A record
// that does not decode is skipped (short of a format bug it cannot
// occur behind a valid CRC).
//
// When snapshotBytes > 0 and the replayed log is larger, compact(state)
// names the records of a smaller equivalent generation (nil: nothing to
// reclaim). The log is rewritten to them under RewriteLog's rename
// commit point and replayed again into a fresh state. A fold that fails
// (a record that will not marshal, a close error, a rewrite error) never
// fails the open: the full log is kept and replayed, with a warning.
//
// The returned warnings hold every torn-tail repair from either replay
// plus the fold's outcome. A bad magic is a *CorruptError, a device
// read error a plain error; neither truncates the file, and the state
// is meaningless alongside an error.
func OpenLedger[R, S any](fsys FS, path, magic string, snapshotBytes int64,
	newState func() S, fold func(S, R), compact func(S) []R) (*Ledger[R], S, []string, error) {
	var warnings []string
	replay := func() (*Log, S, error) {
		st := newState()
		log, err := OpenLog(fsys, path, magic, func(payload []byte) {
			var rec R
			if json.Unmarshal(payload, &rec) == nil {
				fold(st, rec)
			}
		})
		warnings = append(warnings, log.Warnings()...)
		return log, st, err
	}
	log, st, err := replay()
	if err != nil {
		return nil, st, nil, err
	}
	l := &Ledger[R]{log: log}
	var recs []R
	if snapshotBytes > 0 && log.Size() > snapshotBytes {
		recs = compact(st)
	}
	if recs == nil {
		return l, st, warnings, nil
	}
	const foldFailed = "snapshot fold failed (keeping full log): %v"
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		if payloads[i], err = json.Marshal(rec); err != nil {
			// The open log still serves the full history.
			return l, st, append(warnings, fmt.Sprintf(foldFailed, err)), nil
		}
	}
	oldSize := log.Size()
	if err = log.Close(); err == nil {
		err = RewriteLog(fsys, path, magic, payloads)
	}
	if err != nil {
		warnings = append(warnings, fmt.Sprintf(foldFailed, err))
	}
	// Re-replay whichever generation the rename left behind: the folded
	// one on success, the intact original on failure.
	if l.log, st, err = replay(); err != nil {
		return nil, st, nil, err
	}
	if reclaimed := oldSize - l.log.Size(); reclaimed > 0 {
		l.reclaimed = reclaimed
		warnings = append(warnings,
			fmt.Sprintf("snapshot fold reclaimed %d bytes (%d -> %d)", reclaimed, oldSize, l.log.Size()))
	}
	return l, st, warnings, nil
}

// Append durably writes one record (see Log.Append): fsynced before it
// returns, sticky-degraded after any failure, ErrLedgerClosed after
// Close.
func (l *Ledger[R]) Append(rec R) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return ErrLedgerClosed
	}
	return l.log.Append(payload)
}

// Size returns the ledger's trusted on-disk bytes (0 once closed).
func (l *Ledger[R]) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Size()
}

// Err returns the sticky append/sync failure that made the ledger
// persistence-degraded, or nil (also once closed).
func (l *Ledger[R]) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Err()
}

// Reclaimed returns the bytes the open-time fold reclaimed, 0 when no
// fold ran or it failed.
func (l *Ledger[R]) Reclaimed() int64 { return l.reclaimed }

// Close syncs and closes the log; later Appends return ErrLedgerClosed.
// Closing twice is a no-op.
func (l *Ledger[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.log.Close()
	l.log = nil
	return err
}
