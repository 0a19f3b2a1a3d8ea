package checkpoint

import (
	"io"
	"os"
)

// File is the slice of *os.File the framed logs use. Everything a log
// does to its backing file goes through this interface, so a test
// filesystem (internal/faultinject's FaultFS) can interpose ENOSPC,
// failed fsyncs, short writes and read errors at exactly the syscalls a
// failing disk would corrupt.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem seam under every durable predabs store: the
// CEGAR journal, the daemon ledger, the per-job event logs and the
// fleet ledger. The default implementation (OSFS) is the
// real filesystem; fault-injecting implementations wrap it to prove the
// durability layer degrades soundly when the disk itself misbehaves.
//
// The surface is deliberately small — open/append-oriented file access
// plus the directory and rename operations compaction needs — so a
// faulty implementation covers every byte the stores persist.
type FS interface {
	// OpenFile opens path with os.OpenFile semantics.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// MkdirAll creates path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath (the compaction
	// commit point: a crash before it keeps the old generation, after it
	// the new one — never a torn mix).
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Stat reports path's metadata (store size gauges read it).
	Stat(path string) (os.FileInfo, error)
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Stat(path string) (os.FileInfo, error)        { return os.Stat(path) }

// OSFS returns the real filesystem, the default for every durable
// store when no fault-injecting FS is configured.
func OSFS() FS { return osFS{} }

// orOS returns fsys, defaulting a nil seam to the real filesystem so
// zero-value configs keep today's behavior.
func orOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}
