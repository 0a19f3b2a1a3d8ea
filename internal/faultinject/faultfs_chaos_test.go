// Disk-chaos tests for the fault-injecting filesystem itself: the
// schedule must be a pure function of its config (a failing seed
// replays identically), sticky faults must model a dead disk across
// every file, and the path filter must scope faults to one store.
package faultinject

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"predabs/internal/checkpoint"
)

// driveOps runs a fixed op script — writes, syncs, reads and renames
// across two files — recording which ops failed. The script is what
// makes two FaultFS instances comparable.
func driveOps(t *testing.T, ffs *FaultFS, dir string) string {
	t.Helper()
	var trace []string
	a, err := ffs.OpenFile(filepath.Join(dir, "a.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ffs.OpenFile(filepath.Join(dir, "b.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	for i := 0; i < 10; i++ {
		f, name := a, "a"
		if i%2 == 1 {
			f, name = b, "b"
		}
		if _, err := f.Write(payload); err != nil {
			trace = append(trace, fmt.Sprintf("w%d:%s", i, name))
		}
		if err := f.Sync(); err != nil {
			trace = append(trace, fmt.Sprintf("s%d:%s", i, name))
		}
		buf := make([]byte, 4)
		if _, err := f.ReadAt(buf, 0); err != nil {
			trace = append(trace, fmt.Sprintf("r%d:%s", i, name))
		}
	}
	a.Close()
	b.Close()
	if err := ffs.Rename(filepath.Join(dir, "a.log"), filepath.Join(dir, "a2.log")); err != nil {
		trace = append(trace, "mv")
	}
	return fmt.Sprint(trace)
}

// TestDiskChaosFaultScheduleDeterminism replays the same seeded rate
// schedule twice: the failed-op trace and the per-kind fire counts must
// be identical, and across seeds the schedules must actually vary.
func TestDiskChaosFaultScheduleDeterminism(t *testing.T) {
	traces := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := FSConfig{
			Seed:           seed,
			WriteFailRate:  0.2,
			ShortWriteRate: 0.1,
			SyncFailRate:   0.2,
			ReadFailRate:   0.2,
			RenameFailRate: 0.5,
		}
		ffs1 := NewFS(nil, cfg)
		ffs2 := NewFS(nil, cfg)
		t1 := driveOps(t, ffs1, t.TempDir())
		t2 := driveOps(t, ffs2, t.TempDir())
		if t1 != t2 {
			t.Fatalf("seed %d not deterministic:\n  %s\n  %s", seed, t1, t2)
		}
		if fmt.Sprint(ffs1.Injected()) != fmt.Sprint(ffs2.Injected()) {
			t.Fatalf("seed %d fire counts diverged: %v vs %v", seed, ffs1.Injected(), ffs2.Injected())
		}
		traces[t1] = true
	}
	if len(traces) < 2 {
		t.Fatalf("8 seeds produced %d distinct schedules; the roll ignores the seed", len(traces))
	}
}

// TestDiskChaosStickyFaultPoisonsAllWrites pins the dead-disk model: a
// sticky write fault on one file fails every later write and sync on
// every file, while reads pass through untouched.
func TestDiskChaosStickyFaultPoisonsAllWrites(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFS(nil, FSConfig{FailWriteAfter: 1, Sticky: true})
	a, _ := ffs.OpenFile(filepath.Join(dir, "a.log"), os.O_RDWR|os.O_CREATE, 0o644)
	b, _ := ffs.OpenFile(filepath.Join(dir, "b.log"), os.O_RDWR|os.O_CREATE, 0o644)
	defer a.Close()
	defer b.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("scheduled write fault did not fire")
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("sticky fault did not poison the other file's writes")
	}
	if err := b.Sync(); err == nil {
		t.Fatal("sticky fault did not poison syncs")
	}
	if _, err := b.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read of an empty file should EOF") // sanity: reads reach the device
	} else if ffs.Injected()[FSKindReadFail] != 0 {
		t.Fatalf("sticky write fault bled into reads: %v", ffs.Injected())
	}
	if got := ffs.Injected()[FSKindWriteFail]; got != 1 {
		t.Fatalf("sticky repeats recorded as new fires: %d", got)
	}
}

// TestDiskChaosPathFilterScopesFaults checks the blast radius: with a
// filter on one store file, the other store sees a clean disk.
func TestDiskChaosPathFilterScopesFaults(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFS(nil, FSConfig{FailWriteAfter: 1, Sticky: true, PathFilter: "ledger.predabs"})
	clean, err := checkpoint.OpenLog(ffs, filepath.Join(dir, "events.predabs"), "EVT\x00", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if err := clean.Append([]byte("fine")); err != nil {
		t.Fatalf("out-of-scope store hit the fault: %v", err)
	}
	if _, err := checkpoint.OpenLog(ffs, filepath.Join(dir, "ledger.predabs"), "LGR\x00", nil); err == nil {
		t.Fatal("in-scope store never saw the fault")
	}
	if err := clean.Append([]byte("still fine")); err != nil {
		t.Fatalf("sticky in-scope fault leaked past the path filter: %v", err)
	}
}
