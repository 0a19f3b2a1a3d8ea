package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Log is a minimal append-only durable record log with the journal's
// frame discipline — magic prefix, length+CRC32 framing, fsync per
// append, torn-tail truncation on open — but none of the journal's
// replay semantics. predabsd's job ledger is built on it; anything that
// needs crash-safe ordered records can reuse it.
//
// A Log's corruption contract matches the journal's: a record is either
// replayed intact or it (and everything after it) is discarded, so a
// crash mid-append can lose at most the record being written, never
// corrupt an earlier one.
//
// Append failures are sticky: once a frame write or fsync fails, the
// on-disk tail is untrusted (a partial or unsynced frame may precede
// any new one), so every later Append fails fast with the original
// error. Err exposes that state; owners surface it as a
// persistence-degraded condition and keep serving from memory.
type Log struct {
	path     string
	fsys     FS
	f        File
	size     int64 // bytes of trusted log prefix (magic + intact frames)
	failed   error // first append/sync error; sticky
	warnings []string
}

// OpenLog opens (or creates) the framed log at path, whose first bytes
// must be magic (pad or terminate it so no valid log with a different
// schema shares a prefix). Every intact record payload is passed to
// replay in append order. A torn or corrupted tail is truncated with a
// warning; a file whose magic does not match is a *CorruptError — the
// caller decides whether to delete and recreate.
func OpenLog(path, magic string, replay func(payload []byte)) (*Log, error) {
	return OpenLogFS(nil, path, magic, replay)
}

// OpenLogFS is OpenLog over an explicit filesystem seam; a nil fsys is
// the real filesystem.
func OpenLogFS(fsys FS, path, magic string, replay func(payload []byte)) (*Log, error) {
	fsys = orOS(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	l := &Log{path: path, fsys: fsys, f: f}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("log: %w", err)
	}
	if size == 0 {
		// Fresh file: stamp the magic durably before any record.
		if _, err := f.Write([]byte(magic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("log: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("log: %w", err)
		}
		l.size = int64(len(magic))
		return l, nil
	}
	buf := make([]byte, len(magic))
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Shorter than the magic: no valid log starts this way.
			return nil, &CorruptError{Path: path, Detail: "bad magic"}
		}
		// A device read error is not corruption: quarantining (or
		// recreating) here would destroy a log that is probably fine.
		return nil, fmt.Errorf("log: reading magic: %w", err)
	}
	if string(buf) != magic {
		f.Close()
		return nil, &CorruptError{Path: path, Detail: "bad magic"}
	}
	offset := int64(len(magic))
	for {
		payload, n, err := readFrame(f, offset)
		if err == io.EOF {
			break
		}
		if err != nil {
			if ioErr := readIOError(err); ioErr != nil {
				// A real read error (EIO, not a torn frame): truncating
				// here could discard good durable records, so fail the
				// open instead of "repairing".
				f.Close()
				return nil, fmt.Errorf("log: reading record at offset %d: %w", offset, ioErr)
			}
			l.warnings = append(l.warnings,
				fmt.Sprintf("log tail invalid at offset %d (%v): truncated to last good record", offset, err))
			if terr := f.Truncate(offset); terr != nil {
				f.Close()
				return nil, fmt.Errorf("log: repairing torn tail: %w", terr)
			}
			if serr := f.Sync(); serr != nil {
				f.Close()
				return nil, fmt.Errorf("log: repairing torn tail: %w", serr)
			}
			break
		}
		if replay != nil {
			replay(payload)
		}
		offset += n
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("log: %w", err)
	}
	l.size = offset
	return l, nil
}

// Warnings lists the torn-tail repairs performed on open.
func (l *Log) Warnings() []string {
	if l == nil {
		return nil
	}
	return append([]string(nil), l.warnings...)
}

// Path returns the log's file path.
func (l *Log) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Size returns the trusted on-disk size in bytes: the magic plus every
// intact frame replayed on open or appended (and fsynced) since.
// Callers serialize Size with their own appends, same as Append.
func (l *Log) Size() int64 {
	if l == nil {
		return 0
	}
	return l.size
}

// Err returns the first append/sync error, or nil. Once non-nil the log
// is persistence-degraded: the tail is untrusted and every Append fails
// fast with this error. Callers serialize Err with their own appends.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	return l.failed
}

// Append durably writes one record: framed, then fsynced before
// returning. Callers serialize their own appends (the ledger holds its
// mutex across Append). After any failure the log is degraded: the tail
// may hold a partial or unsynced frame, so later Appends fail fast with
// the original error rather than stacking frames after garbage.
func (l *Log) Append(payload []byte) error {
	if l == nil || l.f == nil {
		return fmt.Errorf("log: closed")
	}
	if l.failed != nil {
		return l.failed
	}
	if err := appendFrame(l.f, payload); err != nil {
		l.failed = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("log: %w", err)
		return l.failed
	}
	l.size += frameOverhead + int64(len(payload))
	return nil
}

// ReplayLog reads the framed log at path strictly read-only: every
// intact record payload is passed to replay in append order, and a torn
// or invalid tail simply ends the replay — it is NOT truncated. This is
// the accessor for concurrent readers (predabsd's event-stream handlers
// read a log its worker may be appending to right now): an in-progress
// append looks like a torn tail, and repairing it from the reader would
// corrupt the writer's next frame. A missing file surfaces as the
// open error (satisfying errors.Is(err, fs.ErrNotExist)); a bad magic
// is a *CorruptError.
func ReplayLog(path, magic string, replay func(payload []byte)) error {
	return ReplayLogFS(nil, path, magic, replay)
}

// ReplayLogFS is ReplayLog over an explicit filesystem seam; a nil fsys
// is the real filesystem.
func ReplayLogFS(fsys FS, path, magic string, replay func(payload []byte)) error {
	f, err := orOS(fsys).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, len(magic))
	if _, err := f.ReadAt(buf, 0); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return &CorruptError{Path: path, Detail: "bad magic"}
		}
		return fmt.Errorf("log: reading magic: %w", err)
	}
	if string(buf) != magic {
		return &CorruptError{Path: path, Detail: "bad magic"}
	}
	offset := int64(len(magic))
	for {
		payload, n, err := readFrame(f, offset)
		if err != nil {
			// io.EOF is the clean end; anything else is a torn or
			// in-progress tail, which a reader must leave alone.
			return nil
		}
		if replay != nil {
			replay(payload)
		}
		offset += n
	}
}

// RewriteLog atomically replaces the framed log at path with a new
// generation holding exactly payloads, in order: the frames are written
// to a sibling temp file, fsynced, and renamed onto path. The rename is
// the commit point — a crash (or an injected fault) before it leaves
// the old generation intact, after it the new one; no schedule can
// surface a torn mix. This is the one rewrite primitive behind every
// store's compaction/rotation (ledger snapshots, event-log retention,
// fleet ledger folds). Any open handle on the old
// generation keeps reading the old inode, so a concurrent ReplayLogFS
// reader never observes the swap mid-file.
func RewriteLog(fsys FS, path, magic string, payloads [][]byte) error {
	fsys = orOS(fsys)
	tmp := path + ".rewrite"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("log rewrite: %w", err)
	}
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		return cleanup(fmt.Errorf("log rewrite: %w", err))
	}
	for _, payload := range payloads {
		if err := appendFrame(f, payload); err != nil {
			return cleanup(fmt.Errorf("log rewrite: %w", err))
		}
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("log rewrite: %w", err))
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("log rewrite: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("log rewrite: %w", err)
	}
	return nil
}

// Close syncs and closes the log file. A degraded log skips the final
// sync (it would fail again) and just releases the handle.
func (l *Log) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
