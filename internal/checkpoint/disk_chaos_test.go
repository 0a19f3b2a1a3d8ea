// Disk-chaos tests for the framed-log substrate: every durable store in
// the system (job journal, server ledger, per-job event logs, fleet
// ledger) rides checkpoint.Log, so the
// invariants pinned here — acked records survive any injected disk
// fault, appends degrade stickily instead of corrupting, read errors
// never masquerade as corruption, and generation rewrites commit
// atomically — are the floor under all four owners' own chaos suites.
package checkpoint_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predabs/internal/checkpoint"
	"predabs/internal/faultinject"
)

// storeMagics mirrors the four durable stores' file formats, plus a
// two-byte-longer magic ("cache") so the matrix covers a second header
// length. The tests run the same fault matrix over each: the substrate
// must behave identically no matter which magic stamps the file.
var storeMagics = []struct{ name, magic string }{
	{"journal", "PREDABSJNL1\x00"},
	{"ledger", "PREDABSLGR1\x00"},
	{"events", "PREDABSEVT1\x00"},
	{"fleet", "PREDABSFLT1\x00"},
	{"cache", "PREDABSCACHE1\x00"},
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf(`{"rec":%d,"body":"disk-chaos payload %d"}`, i, i))
}

// runFaultedAppends opens a log at path through ffs and appends records
// until the schedule fires (or maxRecords land). It returns the number
// of acked appends and the first append error (nil if none fired).
func runFaultedAppends(t *testing.T, ffs checkpoint.FS, path, magic string, maxRecords int) (int, error) {
	t.Helper()
	log, err := checkpoint.OpenLog(ffs, path, magic, nil)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer log.Close()
	acked := 0
	for i := 0; i < maxRecords; i++ {
		if err := log.Append(payloadFor(acked)); err != nil {
			// Sticky degradation: the same error, fast, forever after.
			if log.Err() == nil {
				t.Fatalf("Append failed (%v) but Err() is nil", err)
			}
			if err2 := log.Append(payloadFor(acked)); err2 == nil {
				t.Fatalf("Append succeeded after a sticky failure")
			}
			return acked, err
		}
		acked++
	}
	return acked, nil
}

// replayAll reopens path on the clean filesystem and returns the
// replayed payloads plus the open warnings.
func replayAll(t *testing.T, path, magic string) ([]string, []string) {
	t.Helper()
	var got []string
	log, err := checkpoint.OpenLog(nil, path, magic, func(p []byte) { got = append(got, string(p)) })
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	warnings := log.Warnings()
	if err := log.Close(); err != nil {
		t.Fatalf("close after clean reopen: %v", err)
	}
	return got, warnings
}

// checkPrefix asserts the replayed records are exactly a prefix of the
// attempted sequence, at least acked long — the no-wrong-record,
// no-lost-ack oracle shared by the whole matrix.
func checkPrefix(t *testing.T, got []string, acked, attempted int) {
	t.Helper()
	if len(got) < acked {
		t.Fatalf("replay lost acked records: got %d, acked %d", len(got), acked)
	}
	if len(got) > attempted {
		t.Fatalf("replay invented records: got %d, attempted %d", len(got), attempted)
	}
	for i, p := range got {
		if want := string(payloadFor(i)); p != want {
			t.Fatalf("record %d corrupted: got %q want %q", i, p, want)
		}
	}
}

// TestDiskChaosLogFaultMatrix walks deterministic op-count schedules of
// every write-path fault kind across every store magic: each run must
// end in sticky degradation (never a panic, never a wrong ack), and a
// clean restart must recover an intact prefix containing every acked
// record.
func TestDiskChaosLogFaultMatrix(t *testing.T) {
	const maxRecords = 8
	schedules := []struct {
		name string
		cfg  func(n int64) faultinject.FSConfig
	}{
		{"write-fail", func(n int64) faultinject.FSConfig {
			return faultinject.FSConfig{FailWriteAfter: n, Sticky: true}
		}},
		{"short-write", func(n int64) faultinject.FSConfig {
			return faultinject.FSConfig{ShortWriteAfter: n, Sticky: true}
		}},
		{"sync-fail", func(n int64) faultinject.FSConfig {
			return faultinject.FSConfig{FailSyncAfter: n, Sticky: true}
		}},
	}
	for _, store := range storeMagics {
		for _, sched := range schedules {
			for n := int64(2); n <= 6; n++ {
				name := fmt.Sprintf("%s/%s/op%d", store.name, sched.name, n)
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "chaos.predabs")
					ffs := faultinject.NewFS(nil, sched.cfg(n))
					acked, ferr := runFaultedAppends(t, ffs, path, store.magic, maxRecords)
					if ferr == nil && ffs.InjectedTotal() > 0 {
						t.Fatalf("fault fired but no append failed")
					}
					attempted := acked
					if ferr != nil {
						attempted++ // the failed append may be partially durable
					}
					got, _ := replayAll(t, path, store.magic)
					checkPrefix(t, got, acked, attempted)
				})
			}
		}
	}
}

// TestDiskChaosLogSeededRates drives the FNV-rolled probabilistic
// schedule across seeds: whatever subset of faults a seed fires, the
// substrate invariants hold, and the same seed fires the identical
// schedule when replayed.
func TestDiskChaosLogSeededRates(t *testing.T) {
	const maxRecords = 16
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(dir string) (int, int64) {
				path := filepath.Join(dir, "chaos.predabs")
				ffs := faultinject.NewFS(nil, faultinject.FSConfig{
					Seed:           seed,
					WriteFailRate:  0.05,
					ShortWriteRate: 0.05,
					SyncFailRate:   0.05,
					Sticky:         true,
				})
				log, err := checkpoint.OpenLog(ffs, path, "PREDABSLGR1\x00", nil)
				if err != nil {
					// The schedule killed the fresh-file magic write/sync:
					// a valid outcome (the owner fails startup), encoded as
					// acked -1 for the determinism comparison.
					return -1, ffs.InjectedTotal()
				}
				acked := 0
				var ferr error
				for i := 0; i < maxRecords; i++ {
					if ferr = log.Append(payloadFor(acked)); ferr != nil {
						break
					}
					acked++
				}
				log.Close()
				attempted := acked
				if ferr != nil {
					attempted++
				}
				got, _ := replayAll(t, path, "PREDABSLGR1\x00")
				checkPrefix(t, got, acked, attempted)
				return acked, ffs.InjectedTotal()
			}
			acked1, fired1 := run(t.TempDir())
			acked2, fired2 := run(t.TempDir())
			if acked1 != acked2 || fired1 != fired2 {
				t.Fatalf("seed %d not deterministic: (%d acked, %d fired) vs (%d, %d)",
					seed, acked1, fired1, acked2, fired2)
			}
		})
	}
}

// TestDiskChaosReadErrorFailsOpenWithoutTruncation pins the EIO-vs-torn
// distinction: a device read error during open must fail the open — for
// every read offset in the file — and must never truncate, so a later
// healthy open still sees every record.
func TestDiskChaosReadErrorFailsOpenWithoutTruncation(t *testing.T) {
	const records = 4
	path := filepath.Join(t.TempDir(), "chaos.predabs")
	magic := "PREDABSLGR1\x00"
	if acked, err := runFaultedAppends(t, nil, path, magic, records); err != nil || acked != records {
		t.Fatalf("seeding: acked %d, err %v", acked, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := info.Size()

	// Reads during open: 1 is the magic, then one header + one payload
	// read per record. Fail each in turn, for the repairing open and for
	// the read-only replay alike.
	for n := int64(1); n <= 1+2*records; n++ {
		for _, open := range []struct {
			name string
			run  func(checkpoint.FS) error
		}{
			{"OpenLog", func(ffs checkpoint.FS) error {
				_, err := checkpoint.OpenLog(ffs, path, magic, nil)
				return err
			}},
			{"ReplayLog", func(ffs checkpoint.FS) error {
				_, err := checkpoint.ReplayLog(ffs, path, magic, nil)
				return err
			}},
		} {
			oerr := open.run(faultinject.NewFS(nil, faultinject.FSConfig{FailReadAfter: n}))
			if oerr == nil {
				t.Fatalf("%s: read fault at op %d: open succeeded", open.name, n)
			}
			var corrupt *checkpoint.CorruptError
			if errors.As(oerr, &corrupt) {
				t.Fatalf("%s: read fault at op %d misreported as corruption: %v", open.name, n, oerr)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != sizeBefore {
				t.Fatalf("%s: read fault at op %d changed the file: size %d -> %d (%v)",
					open.name, n, sizeBefore, info.Size(), err)
			}
		}
	}
	got, warnings := replayAll(t, path, magic)
	if len(warnings) != 0 {
		t.Fatalf("healthy reopen warned: %v", warnings)
	}
	checkPrefix(t, got, records, records)
}

// TestDiskChaosShortWriteLeavesRepairableTail pins the torn-tail shape:
// after a short write the reopen repairs with a warning, and the acked
// prefix survives exactly.
func TestDiskChaosShortWriteLeavesRepairableTail(t *testing.T) {
	for _, store := range storeMagics {
		t.Run(store.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "chaos.predabs")
			// Seed two records cleanly so the torn frame has durable
			// neighbors to threaten.
			if acked, err := runFaultedAppends(t, nil, path, store.magic, 2); err != nil || acked != 2 {
				t.Fatalf("seeding: acked %d, err %v", acked, err)
			}
			ffs := faultinject.NewFS(nil, faultinject.FSConfig{ShortWriteAfter: 1, Sticky: true})
			log, err := checkpoint.OpenLog(ffs, path, store.magic, nil)
			if err != nil {
				t.Fatalf("OpenLog: %v", err)
			}
			if err := log.Append([]byte(`{"rec":2,"torn":true}`)); err == nil {
				t.Fatalf("short write did not fail the append")
			}
			log.Close()

			got, warnings := replayAll(t, path, store.magic)
			if len(warnings) == 0 {
				t.Fatalf("torn tail repaired without a warning")
			}
			checkPrefix(t, got, 2, 2)
			if len(got) != 2 {
				t.Fatalf("torn record leaked into replay: %d records", len(got))
			}
		})
	}
}

// TestDiskChaosRewriteRenameFailKeepsOldGeneration pins the compaction
// commit point: a rename fault aborts RewriteLog, the old generation
// stays byte-identical, and the temp file does not linger.
func TestDiskChaosRewriteRenameFailKeepsOldGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.predabs")
	magic := "PREDABSCACHE1\x00"
	if acked, err := runFaultedAppends(t, nil, path, magic, 3); err != nil || acked != 3 {
		t.Fatalf("seeding: acked %d, err %v", acked, err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ffs := faultinject.NewFS(nil, faultinject.FSConfig{FailRenameAfter: 1})
	rewritten := [][]byte{[]byte(`{"gen":2}`)}
	if err := checkpoint.RewriteLog(ffs, path, magic, rewritten); err == nil {
		t.Fatalf("rename fault did not abort the rewrite")
	}
	after, err := os.ReadFile(path)
	if err != nil || string(after) != string(before) {
		t.Fatalf("aborted rewrite changed the old generation (err %v)", err)
	}
	if _, err := os.Stat(path + ".rewrite"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp generation left behind: %v", err)
	}

	// The same rewrite on a healthy disk commits atomically.
	if err := checkpoint.RewriteLog(nil, path, magic, rewritten); err != nil {
		t.Fatalf("clean rewrite: %v", err)
	}
	var got []string
	if _, err := checkpoint.ReplayLog(nil, path, magic, func(p []byte) { got = append(got, string(p)) }); err != nil {
		t.Fatalf("replay new generation: %v", err)
	}
	if len(got) != 1 || got[0] != `{"gen":2}` {
		t.Fatalf("new generation replayed %v", got)
	}
}

// TestDiskChaosJournalManagerFaults runs the fault matrix over the full
// journal Manager: iteration commits degrade stickily, and a clean
// restart resumes from a committed iteration boundary with every acked
// commit intact.
func TestDiskChaosJournalManagerFaults(t *testing.T) {
	key := checkpoint.CompatKey{Tool: "slam", Version: "test", Program: "void main() {}", Entry: "main"}
	for _, sched := range []struct {
		name string
		cfg  faultinject.FSConfig
	}{
		{"write-fail", faultinject.FSConfig{FailWriteAfter: 9, Sticky: true}},
		{"short-write", faultinject.FSConfig{ShortWriteAfter: 9, Sticky: true}},
		{"sync-fail", faultinject.FSConfig{FailSyncAfter: 5, Sticky: true}},
	} {
		t.Run(sched.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultinject.NewFS(nil, sched.cfg)
			m, err := checkpoint.Create(ffs, dir, key)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			acked := 0
			var ferr error
			for i := 1; i <= 8; i++ {
				rec := checkpoint.IterationRecord{
					Iter: i,
					Pool: []checkpoint.ScopePreds{{Scope: "main", Preds: []string{fmt.Sprintf("x>%d", i)}}},
				}
				if ferr = m.AppendIteration(rec); ferr != nil {
					// Sticky: the next commit fails fast with the same error.
					if err2 := m.AppendIteration(rec); err2 == nil {
						t.Fatalf("commit succeeded after sticky failure")
					} else if !strings.Contains(err2.Error(), ferr.Error()) && err2.Error() != ferr.Error() {
						t.Logf("note: sticky error differs: %v vs %v", err2, ferr)
					}
					break
				}
				acked = i
			}
			m.Close()
			if ferr == nil {
				t.Fatalf("schedule never fired; raise the trigger count")
			}

			m2, err := checkpoint.Open(nil, dir, key, false)
			if err != nil {
				t.Fatalf("clean reopen: %v", err)
			}
			defer m2.Close()
			snap := m2.Snapshot()
			if snap == nil {
				t.Fatalf("no snapshot after reopen")
			}
			if snap.Iter < acked || snap.Iter > acked+1 {
				t.Fatalf("resumed at iteration %d; acked %d", snap.Iter, acked)
			}
			if snap.Iter > 0 {
				// The resumed pool must be the one committed at snap.Iter.
				want := fmt.Sprintf("x>%d", snap.Iter)
				if len(snap.Pool) != 1 || len(snap.Pool[0].Preds) == 0 ||
					snap.Pool[0].Preds[len(snap.Pool[0].Preds)-1] != want {
					t.Fatalf("resumed pool %v does not match iteration %d", snap.Pool, snap.Iter)
				}
			}
		})
	}

	// A read fault at any read of either open mode fails the open: not
	// as corruption (which would cold-start over good commits), and
	// without touching the file.
	t.Run("read-fail", func(t *testing.T) {
		dir := t.TempDir()
		m, err := checkpoint.Create(nil, dir, key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if err := m.AppendIteration(checkpoint.IterationRecord{Iter: i}); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		path := filepath.Join(dir, checkpoint.JournalName)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizeBefore := info.Size()
		for _, readOnly := range []bool{false, true} {
			// Walk the fault across every read until one lands past the
			// last read the open makes.
			faulted := 0
			for n := int64(1); ; n++ {
				ffs := faultinject.NewFS(nil, faultinject.FSConfig{FailReadAfter: n})
				m, oerr := checkpoint.Open(ffs, dir, key, readOnly)
				if ffs.InjectedTotal() == 0 {
					if oerr != nil {
						t.Fatalf("readOnly=%v: clean open failed: %v", readOnly, oerr)
					}
					m.Close()
					break
				}
				faulted++
				if oerr == nil {
					t.Fatalf("readOnly=%v: read fault at op %d: open succeeded", readOnly, n)
				}
				var corrupt *checkpoint.CorruptError
				if errors.As(oerr, &corrupt) {
					t.Fatalf("readOnly=%v: read fault at op %d misreported as corruption: %v", readOnly, n, oerr)
				}
				if info, err := os.Stat(path); err != nil || info.Size() != sizeBefore {
					t.Fatalf("readOnly=%v: read fault at op %d changed the file: size %d -> %d (%v)",
						readOnly, n, sizeBefore, info.Size(), err)
				}
			}
			// Magic, then header and payload of the header record and
			// three iteration records, then the end-of-file probe.
			if faulted < 10 {
				t.Fatalf("readOnly=%v: only %d reads faulted", readOnly, faulted)
			}
		}
	})
}
