package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log is the append-only durable record log under every predabs store:
// magic prefix, length+CRC32 framing, fsync per append, torn-tail
// truncation on open. The CEGAR journal (Manager) and both ledgers
// (through Ledger) are built on it, and so are predabsd's per-job event
// logs; each owner adds only its own record schema and fold.
//
// Every record is either replayed intact or it (and everything after
// it) is discarded, so a crash mid-append can lose at most the record
// being written, never corrupt an earlier one.
//
// Append failures are sticky: once a frame write or fsync fails, the
// on-disk tail is untrusted (a partial or unsynced frame may precede
// any new one), so every later Append fails fast with the original
// error. Err exposes that state; owners surface it as a
// persistence-degraded condition and keep serving from memory.
type Log struct {
	f        File
	size     int64 // bytes of trusted log prefix (magic + intact frames)
	failed   error // first append/sync error; sticky
	warnings []string
}

// OpenLog opens (or creates) the framed log at path over fsys (nil is
// the real filesystem), whose first bytes must be magic (pad or
// terminate it so no valid log with a different schema shares a
// prefix). Every intact record payload is passed to replay in append
// order. A torn or corrupted tail is truncated with a warning; a file
// whose magic does not match is a *CorruptError and a device read error
// a plain error — neither touches the file, and the caller decides
// whether to delete and recreate.
func OpenLog(fsys FS, path, magic string, replay func(payload []byte)) (*Log, error) {
	fsys = orOS(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	l := &Log{f: f}
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
	end, tail, err := scanLog(f, path, magic, replay)
	if err != nil {
		f.Close()
		return nil, err
	}
	if tail != nil {
		// Appends must start from a trusted prefix.
		l.warnings = append(l.warnings,
			fmt.Sprintf("tail invalid at offset %d (%v): truncated to last good record", end, tail))
		if terr := f.Truncate(end); terr != nil {
			f.Close()
			return nil, fmt.Errorf("log: repairing torn tail: %w", terr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, fmt.Errorf("log: repairing torn tail: %w", serr)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("log: %w", err)
	}
	l.size = end
	return l, nil
}

// scanLog checks f's magic and passes every intact record payload to
// replay in append order. It returns the offset just past the last
// intact record and, when the scan stopped at a torn or corrupted frame
// rather than a clean end of file, that frame's error. A bad magic (a
// *CorruptError) or a device read error comes back as err instead: a
// log the disk failed to read may be fine, so no caller may repair it.
func scanLog(f File, path, magic string, replay func(payload []byte)) (end int64, tail, err error) {
	buf := make([]byte, len(magic))
	if _, err := f.ReadAt(buf, 0); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Shorter than the magic: no valid log starts this way.
			return 0, nil, &CorruptError{Path: path, Detail: "bad magic"}
		}
		return 0, nil, fmt.Errorf("log: reading magic: %w", err)
	}
	if string(buf) != magic {
		return 0, nil, &CorruptError{Path: path, Detail: "bad magic"}
	}
	end = int64(len(magic))
	for {
		payload, n, err := readFrame(f, end)
		var re *readError
		switch {
		case err == io.EOF:
			return end, nil, nil
		case errors.As(err, &re):
			return end, nil, fmt.Errorf("log: reading record at offset %d: %w", end, re.err)
		case err != nil:
			return end, err, nil
		}
		if replay != nil {
			replay(payload)
		}
		end += n
	}
}

// Warnings lists the torn-tail repairs performed on open.
func (l *Log) Warnings() []string {
	if l == nil {
		return nil
	}
	return append([]string(nil), l.warnings...)
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

// ReplayLog reads the framed log at path over fsys (nil is the real
// filesystem) strictly read-only: every intact record payload is passed
// to replay in append order, and a torn or invalid tail ends the replay
// with a warning — it is NOT truncated. This is the accessor for
// concurrent readers (predabsd's event-stream handlers read a log its
// worker may be appending to right now): an in-progress append looks
// like a torn tail, and repairing it from the reader would corrupt the
// writer's next frame. A missing file surfaces as the open error
// (satisfying errors.Is(err, fs.ErrNotExist)); a bad magic is a
// *CorruptError and a device read error a plain error, as in OpenLog.
func ReplayLog(fsys FS, path, magic string, replay func(payload []byte)) (warnings []string, err error) {
	f, err := orOS(fsys).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	end, tail, err := scanLog(f, path, magic, replay)
	if err != nil || tail == nil {
		return nil, err
	}
	return []string{fmt.Sprintf("tail invalid at offset %d (%v): ignored", end, tail)}, nil
}

// RewriteLog atomically replaces the framed log at path with a new
// generation holding exactly payloads, in order: the frames are written
// to a sibling temp file, fsynced, and renamed onto path. The rename is
// the commit point — a crash (or an injected fault) before it leaves
// the old generation intact, after it the new one; no schedule can
// surface a torn mix. This is the one rewrite primitive behind every
// store's compaction/rotation (ledger snapshots, event-log retention,
// fleet ledger folds) and behind journal creation. Any open handle on the old
// generation keeps reading the old inode, so a concurrent ReplayLog
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

// maxRecordLen bounds one record's payload, so a corrupted length field
// cannot drive a huge allocation.
const maxRecordLen = 1 << 28

// frameOverhead is the per-record framing cost: u32 length + u32 CRC.
const frameOverhead = 8

// FrameOverhead is frameOverhead for store owners sizing their own
// rotation/compaction targets (bytes per record = payload + overhead).
const FrameOverhead = frameOverhead

// frameHeader encodes the length and CRC32 that precede payload on disk.
func frameHeader(payload []byte) [frameOverhead]byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return hdr
}

// appendFrame writes one length-prefixed, checksummed record at f's
// current offset.
func appendFrame(f File, payload []byte) error {
	hdr := frameHeader(payload)
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	return nil
}

// readError marks a real device read failure (EIO), as opposed to the
// structural torn-frame errors that OpenLog repairs by truncation.
// Truncating a log because the disk failed to *read* it would destroy
// good durable records, so the two must never be conflated.
type readError struct{ err error }

func (e *readError) Error() string { return e.err.Error() }
func (e *readError) Unwrap() error { return e.err }

// readFrame reads the record at offset, validating length and CRC. It
// returns the payload and the total frame size. A structural violation
// — short header, oversized length, short payload, checksum mismatch —
// comes back as a plain non-EOF error (a torn tail the caller may
// repair); a device read failure comes back as a *readError (which the
// caller must NOT repair by truncation); a clean end-of-file is io.EOF.
func readFrame(f File, offset int64) (payload []byte, size int64, err error) {
	var hdr [frameOverhead]byte
	n, err := f.ReadAt(hdr[:], offset)
	if n == 0 && err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil && err != io.EOF {
		return nil, 0, &readError{err}
	}
	if n < frameOverhead {
		return nil, 0, fmt.Errorf("torn record header")
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecordLen {
		return nil, 0, fmt.Errorf("implausible record length %d", length)
	}
	payload = make([]byte, length)
	if _, err := f.ReadAt(payload, offset+frameOverhead); err != nil {
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, 0, &readError{err}
		}
		return nil, 0, fmt.Errorf("torn record payload")
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, fmt.Errorf("checksum mismatch")
	}
	return payload, frameOverhead + int64(length), nil
}
