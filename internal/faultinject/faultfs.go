package faultinject

import (
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"predabs/internal/checkpoint"
)

// Filesystem fault kinds, as reported by FaultFS.Injected. Each models
// one way a real disk kills a long-running daemon: the device fills
// (ENOSPC), fsync lies (journaling-filesystem error-reporting bugs), a
// write lands partially (power cut mid-sector), a read hits a bad block
// (EIO), or the rename that commits a compacted generation fails.
const (
	FSKindWriteFail  = "fs-write-fail"  // ENOSPC on a frame write
	FSKindShortWrite = "fs-short-write" // partial write, then ENOSPC
	FSKindSyncFail   = "fs-sync-fail"   // fsync returns EIO
	FSKindReadFail   = "fs-read-fail"   // ReadAt returns EIO
	FSKindRenameFail = "fs-rename-fail" // rename returns EIO
)

// FSConfig is one deterministic filesystem fault schedule. Two
// complementary trigger styles compose:
//
// Op-count triggers fire on the Nth matching operation (1-based)
// across the FaultFS's lifetime — "the 3rd write fails with ENOSPC" —
// which is how the disk-chaos matrix walks a fault across every commit
// point of a store, the way the crash matrix walks SIGKILL across
// commits. Zero disables a trigger.
//
// Rate triggers fire probabilistically, but deterministically: the
// decision is a pure function of (seed, fault kind, operation ordinal),
// the same FNV-roll idiom as the prover's fault schedule, so a failing
// seed replays identically.
//
// Sticky, when set, makes a fired write/sync fault permanent — every
// later write/sync on any file fails too, modelling a genuinely full
// or dead disk rather than a transient hiccup.
type FSConfig struct {
	Seed int64

	// Op-count triggers (1-based ordinal of the matching op; 0 = off).
	FailWriteAfter  int64 // Nth Write returns ENOSPC writing nothing
	ShortWriteAfter int64 // Nth Write persists half the bytes, then ENOSPC
	FailSyncAfter   int64 // Nth Sync returns EIO (bytes already buffered)
	FailReadAfter   int64 // Nth ReadAt returns EIO
	FailRenameAfter int64 // Nth Rename returns EIO

	// Rate triggers in [0, 1]; rolled per matching op ordinal.
	WriteFailRate  float64
	ShortWriteRate float64
	SyncFailRate   float64
	ReadFailRate   float64
	RenameFailRate float64

	// Sticky makes the first fired write/sync fault permanent.
	Sticky bool

	// PathFilter, when set, scopes faults to files whose base name
	// matches (e.g. "ledger.predabs"); other files see a clean disk.
	// Rename faults match either path's base name.
	PathFilter string
}

// FaultFS wraps a checkpoint.FS with the deterministic fault schedule
// cfg describes. It is the disk-level sibling of the prover's fault
// injector: the chaos matrix threads it through every durable store
// (journal, ledger, events, fleet ledger) and asserts the owner
// degrades soundly — keeps serving, never crashes, never flips a
// verdict — exactly as it must under SIGKILL.
type FaultFS struct {
	inner checkpoint.FS
	cfg   FSConfig

	mu      sync.Mutex
	writes  int64
	syncs   int64
	reads   int64
	renames int64
	stuck   bool // a sticky write/sync fault has fired

	injected map[string]int64
}

var _ checkpoint.FS = (*FaultFS)(nil)

// NewFS wraps inner (nil = the real filesystem) with the fault
// schedule cfg describes.
func NewFS(inner checkpoint.FS, cfg FSConfig) *FaultFS {
	if inner == nil {
		inner = checkpoint.OSFS()
	}
	return &FaultFS{inner: inner, cfg: cfg, injected: map[string]int64{}}
}

// Injected reports how many faults of each kind fired.
func (ffs *FaultFS) Injected() map[string]int64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	out := make(map[string]int64, len(ffs.injected))
	for k, v := range ffs.injected {
		out[k] = v
	}
	return out
}

// InjectedTotal sums all fired filesystem faults.
func (ffs *FaultFS) InjectedTotal() int64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	var n int64
	for _, v := range ffs.injected {
		n += v
	}
	return n
}

// match reports whether path is in scope for fault injection.
func (ffs *FaultFS) match(path string) bool {
	return ffs.cfg.PathFilter == "" || filepath.Base(path) == ffs.cfg.PathFilter
}

// fire records one injected fault. Caller holds ffs.mu.
func (ffs *FaultFS) fire(kind string, sticky bool) {
	ffs.injected[kind]++
	if sticky && ffs.cfg.Sticky {
		ffs.stuck = true
	}
}

// roll hashes (seed, fault kind, op ordinal) into [0, 1) and fires when
// the result falls under rate — the same deterministic idiom as the
// prover injector, so a schedule replays identically across runs.
func (ffs *FaultFS) roll(kind string, ordinal int64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	var b [16]byte
	s, o := uint64(ffs.cfg.Seed), uint64(ordinal)
	for i := 0; i < 8; i++ {
		b[i] = byte(s >> (8 * i))
		b[8+i] = byte(o >> (8 * i))
	}
	h.Write(b[:8])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(b[8:])
	return float64(h.Sum64())/math.MaxUint64 < rate
}

// pathErr builds the error a real syscall would surface.
func pathErr(op, path string, errno syscall.Errno) error {
	return &os.PathError{Op: op, Path: path, Err: errno}
}

// OpenFile opens path on the inner filesystem and wraps the handle so
// in-scope writes, syncs and reads run through the fault schedule.
func (ffs *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (checkpoint.File, error) {
	f, err := ffs.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: ffs, path: path, inner: f}, nil
}

// MkdirAll passes through to the inner filesystem.
func (ffs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return ffs.inner.MkdirAll(path, perm)
}

// Rename fails with EIO on a matching trigger — the fault that aborts
// a compaction at its commit point — and otherwise passes through.
func (ffs *FaultFS) Rename(oldpath, newpath string) error {
	if ffs.match(oldpath) || ffs.match(newpath) {
		ffs.mu.Lock()
		ffs.renames++
		n := ffs.renames
		hit := n == ffs.cfg.FailRenameAfter || ffs.roll(FSKindRenameFail, n, ffs.cfg.RenameFailRate)
		if hit {
			ffs.fire(FSKindRenameFail, false)
		}
		ffs.mu.Unlock()
		if hit {
			return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
		}
	}
	return ffs.inner.Rename(oldpath, newpath)
}

// Remove passes through to the inner filesystem.
func (ffs *FaultFS) Remove(path string) error { return ffs.inner.Remove(path) }

// Stat passes through to the inner filesystem.
func (ffs *FaultFS) Stat(path string) (os.FileInfo, error) { return ffs.inner.Stat(path) }

// faultFile interposes the schedule on one open handle.
type faultFile struct {
	fs    *FaultFS
	path  string
	inner checkpoint.File
}

func (f *faultFile) Write(p []byte) (int, error) {
	if !f.fs.match(f.path) {
		return f.inner.Write(p)
	}
	ffs := f.fs
	ffs.mu.Lock()
	if ffs.stuck {
		ffs.mu.Unlock()
		return 0, pathErr("write", f.path, syscall.ENOSPC)
	}
	ffs.writes++
	n := ffs.writes
	var full, short bool
	switch {
	case n == ffs.cfg.FailWriteAfter || ffs.roll(FSKindWriteFail, n, ffs.cfg.WriteFailRate):
		full = true
		ffs.fire(FSKindWriteFail, true)
	case n == ffs.cfg.ShortWriteAfter || ffs.roll(FSKindShortWrite, n, ffs.cfg.ShortWriteRate):
		short = true
		ffs.fire(FSKindShortWrite, true)
	}
	ffs.mu.Unlock()
	switch {
	case full:
		return 0, pathErr("write", f.path, syscall.ENOSPC)
	case short:
		// Half the bytes reach the device, then the disk is full — the
		// partial write that leaves a torn frame for replay to repair.
		written, _ := f.inner.Write(p[:len(p)/2])
		f.inner.Sync() // make the torn prefix durable, worst case for replay
		return written, pathErr("write", f.path, syscall.ENOSPC)
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if !f.fs.match(f.path) {
		return f.inner.Sync()
	}
	ffs := f.fs
	ffs.mu.Lock()
	if ffs.stuck {
		ffs.mu.Unlock()
		return pathErr("sync", f.path, syscall.EIO)
	}
	ffs.syncs++
	n := ffs.syncs
	hit := n == ffs.cfg.FailSyncAfter || ffs.roll(FSKindSyncFail, n, ffs.cfg.SyncFailRate)
	if hit {
		ffs.fire(FSKindSyncFail, true)
	}
	ffs.mu.Unlock()
	if hit {
		return pathErr("sync", f.path, syscall.EIO)
	}
	return f.inner.Sync()
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.match(f.path) {
		return f.inner.ReadAt(p, off)
	}
	ffs := f.fs
	ffs.mu.Lock()
	ffs.reads++
	n := ffs.reads
	hit := n == ffs.cfg.FailReadAfter || ffs.roll(FSKindReadFail, n, ffs.cfg.ReadFailRate)
	if hit {
		ffs.fire(FSKindReadFail, false)
	}
	ffs.mu.Unlock()
	if hit {
		return 0, pathErr("read", f.path, syscall.EIO)
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *faultFile) Close() error              { return f.inner.Close() }
