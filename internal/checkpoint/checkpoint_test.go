package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"predabs/internal/prover"
)

func testKey() CompatKey {
	return CompatKey{
		Tool: "slam", Version: "test", Program: "void main() {}", Spec: "x > 0",
		Entry: "main", MaxCubeLen: 3,
	}
}

func testRecord(iter int) IterationRecord {
	return IterationRecord{
		Iter: iter,
		Pool: []ScopePreds{
			{Scope: "<global>", Preds: []string{"x > 0"}},
			{Scope: "main", Preds: []string{"y == x", "y > 0"}},
		},
		Cache: []prover.CacheEntry{
			{Key: "U\x00a", Val: false},
			{Key: "V\x00h\x00g", Val: true},
		},
		Counters: Counters{ProverCalls: 10 * iter, CacheHits: iter, CheckIterations: iter},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	m, err := Create(nil, dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendIteration(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	rec2 := testRecord(2)
	rec2.Cache = append(rec2.Cache, prover.CacheEntry{Key: "U\x00b", Val: true})
	if err := m.AppendIteration(rec2); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendFinal("Unknown", "deadline"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(nil, dir, key, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := re.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot after replay")
	}
	if snap.Iter != 2 {
		t.Errorf("Iter = %d, want 2", snap.Iter)
	}
	if len(snap.Pool) != 2 || snap.Pool[1].Scope != "main" || len(snap.Pool[1].Preds) != 2 {
		t.Errorf("pool not replayed: %+v", snap.Pool)
	}
	// Union of both spills, canonical (sorted) order.
	if len(snap.Cache) != 3 {
		t.Fatalf("cache union = %d entries, want 3: %+v", len(snap.Cache), snap.Cache)
	}
	for i := 1; i < len(snap.Cache); i++ {
		if snap.Cache[i-1].Key >= snap.Cache[i].Key {
			t.Errorf("cache not in canonical order at %d", i)
		}
	}
	if snap.Counters.ProverCalls != 20 {
		t.Errorf("counters = %+v, want ProverCalls 20", snap.Counters)
	}
	if snap.Outcome != "Unknown" {
		t.Errorf("outcome = %q, want Unknown", snap.Outcome)
	}
	if len(re.Warnings()) != 0 {
		t.Errorf("unexpected warnings: %v", re.Warnings())
	}
}

// TestOpensJournalWithSigs: iteration records once also carried each
// procedure's signature under "sigs". Resume recomputes signatures, so a
// journal written that way must open, replay and resume exactly like one
// without them.
func TestOpensJournalWithSigs(t *testing.T) {
	key := testKey()
	resume := func(t *testing.T, write func(m *Manager)) *Snapshot {
		t.Helper()
		dir := t.TempDir()
		m, err := Create(nil, dir, key)
		if err != nil {
			t.Fatal(err)
		}
		write(m)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(nil, dir, key, false)
		if err != nil {
			t.Fatal(err)
		}
		if snap := re.Snapshot(); snap == nil || snap.Iter != 1 {
			t.Fatalf("replayed snapshot %+v, want iteration 1", snap)
		}
		rec2 := testRecord(2)
		rec2.Cache = append(rec2.Cache, prover.CacheEntry{Key: "U\x00b", Val: true})
		if err := re.AppendIteration(rec2); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(nil, dir, key, true)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if w := again.Warnings(); len(w) != 0 {
			t.Fatalf("warnings: %v", w)
		}
		return again.Snapshot()
	}
	want := resume(t, func(m *Manager) {
		if err := m.AppendIteration(testRecord(1)); err != nil {
			t.Fatal(err)
		}
	})
	got := resume(t, func(m *Manager) {
		payload, err := json.Marshal(iterationPayload{Type: "iteration", Iter: 1, Pool: testRecord(1).Pool,
			Cache: testRecord(1).Cache, Counters: testRecord(1).Counters})
		if err != nil {
			t.Fatal(err)
		}
		sigs := `"sigs":[{"proc":"main","ef":["b0"],"er":["b1"]}],"cache":`
		legacy := strings.Replace(string(payload), `"cache":`, sigs, 1)
		if legacy == string(payload) {
			t.Fatal("no cache field to put the signatures before")
		}
		if err := m.log.Append([]byte(legacy)); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal with signatures resumed to %+v, want %+v", got, want)
	}
	if got.Iter != 2 || len(got.Cache) != 3 || got.Counters.ProverCalls != 20 {
		t.Fatalf("resumed snapshot %+v, want iteration 2, three cache entries, ProverCalls 20", got)
	}
}

func TestDeltaSpill(t *testing.T) {
	dir := t.TempDir()
	m, err := Create(nil, dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AppendIteration(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	st1, _ := os.Stat(filepath.Join(dir, JournalName))
	// Same cache again: the second record's spill must be empty, so the
	// growth is just the (cache-free) record.
	if err := m.AppendIteration(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	st2, _ := os.Stat(filepath.Join(dir, JournalName))
	growth := st2.Size() - st1.Size()
	rec := testRecord(1)
	if growth <= 0 || growth > st1.Size() {
		t.Errorf("second commit grew journal by %d bytes (first record region %d); delta spill not applied for %d cache entries",
			growth, st1.Size(), len(rec.Cache))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	m, err := Create(nil, dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendIteration(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendIteration(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the last record: a torn append.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(nil, dir, key, false)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer re.Close()
	snap := re.Snapshot()
	if snap == nil || snap.Iter != 1 {
		t.Fatalf("want resume from iteration 1 after torn tail, got %+v", snap)
	}
	if len(re.Warnings()) == 0 {
		t.Error("torn-tail truncation should be reported in Warnings")
	}
	// The repair must leave a journal that appends and replays cleanly.
	if err := re.AppendIteration(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := Open(nil, dir, key, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if snap := re2.Snapshot(); snap == nil || snap.Iter != 2 {
		t.Fatalf("want iteration 2 after repaired append, got %+v", snap)
	}
}

func TestBitFlipTruncatesFromFlip(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	m, err := Create(nil, dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendIteration(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	off := m.log.Size()
	if err := m.AppendIteration(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendIteration(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	path := filepath.Join(dir, JournalName)
	raw, _ := os.ReadFile(path)
	raw[off+frameOverhead+3] ^= 0x40 // flip a bit inside record 2's payload
	os.WriteFile(path, raw, 0o644)

	re, err := Open(nil, dir, key, false)
	if err != nil {
		t.Fatalf("bit flip must not fail open: %v", err)
	}
	defer re.Close()
	// Record 3 came after the corrupted record 2: neither is trusted.
	if snap := re.Snapshot(); snap == nil || snap.Iter != 1 {
		t.Fatalf("want resume from iteration 1 after mid-file bit flip, got %+v", snap)
	}
	if len(re.Warnings()) == 0 {
		t.Error("bit-flip truncation should be reported in Warnings")
	}
}

// writeJournal creates a journal for key with one committed iteration
// and returns its path.
func writeJournal(t *testing.T, dir string, key CompatKey) string {
	t.Helper()
	m, err := Create(nil, dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendIteration(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, JournalName)
}

// openRejected damages the journal at path, opens it for key and
// returns the error; a rejected journal must be left byte-identical.
func openRejected(t *testing.T, dir, path string, key CompatKey, damage func([]byte) []byte) error {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = damage(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(nil, dir, key, false)
	if err == nil {
		m.Close()
		t.Fatal("damaged journal was accepted")
	}
	if after, rerr := os.ReadFile(path); rerr != nil || string(after) != string(raw) {
		t.Fatalf("Open changed a journal it rejected (%v)", rerr)
	}
	return err
}

func tornTail(raw []byte) []byte { return raw[:len(raw)-7] }

func TestBadMagicIsCorrupt(t *testing.T) {
	badMagic := func(raw []byte) []byte { raw[0] ^= 0xFF; return raw }
	badHeaderCRC := func(raw []byte) []byte { raw[len(magic)+4] ^= 0x01; return raw }
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"magic", badMagic},
		{"magic+torn-tail", func(raw []byte) []byte { return tornTail(badMagic(raw)) }},
		{"header-crc", badHeaderCRC},
		{"header-crc+torn-tail", func(raw []byte) []byte { return tornTail(badHeaderCRC(raw)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := testKey()
			err := openRejected(t, dir, writeJournal(t, dir, key), key, tc.damage)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want CorruptError, got %v", err)
			}
		})
	}
}

func TestWrongKeyIsIncompatible(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"intact", func(raw []byte) []byte { return raw }},
		{"torn-tail", tornTail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeJournal(t, dir, testKey())
			other := testKey()
			other.Program = "void main() { int x; }"
			err := openRejected(t, dir, path, other, tc.damage)
			var ie *IncompatibleError
			if !errors.As(err, &ie) {
				t.Fatalf("want IncompatibleError for different program, got %v", err)
			}
		})
	}
}

func TestCompatKeyFields(t *testing.T) {
	base := testKey()
	perturb := []struct {
		name string
		f    func(*CompatKey)
	}{
		{"Tool", func(k *CompatKey) { k.Tool = "other" }},
		{"Version", func(k *CompatKey) { k.Version = "other" }},
		{"Program", func(k *CompatKey) { k.Program = "x" }},
		{"Spec", func(k *CompatKey) { k.Spec = "y" }},
		{"Entry", func(k *CompatKey) { k.Entry = "init" }},
		{"MaxCubeLen", func(k *CompatKey) { k.MaxCubeLen++ }},
		{"CubeBudget", func(k *CompatKey) { k.CubeBudget = 7 }},
		{"BDDMaxNodes", func(k *CompatKey) { k.BDDMaxNodes = 7 }},
	}
	for _, p := range perturb {
		k := base
		p.f(&k)
		if k.Hash() == base.Hash() {
			t.Errorf("perturbing %s did not change the compatibility hash", p.name)
		}
	}
	// Injective encoding: shifting a boundary between adjacent fields
	// must not collide.
	a := CompatKey{Program: "ab", Spec: "c"}
	b := CompatKey{Program: "a", Spec: "bc"}
	if a.Hash() == b.Hash() {
		t.Error("field-boundary shift collides — encoding not injective")
	}
}

// TestCompatKeyHashStable pins the hash of two slam keys to hex values
// computed before CompatKey lost its free-form Extra field: a journal
// written then must still resume, so the encoding may not move.
func TestCompatKeyHashStable(t *testing.T) {
	for _, c := range []struct {
		key  CompatKey
		want string
	}{
		{testKey(), "59576e8679f337b07ae48b55c6b83b9a5ec5188e8bd7615441276c75a4b18105"},
		{CompatKey{
			Tool: "slam", Version: "0.9.0", Program: "void main(int x) { assert(x > 0); }",
			Entry: "main", MaxCubeLen: 3, CubeBudget: 40, BDDMaxNodes: 5000, AbsEngine: "models",
		}, "d4cee3003493bf01912855851f35b54fae53387b1d379dcbc979c20ac4733e38"},
	} {
		if got := c.key.Hash(); got != c.want {
			t.Errorf("%+v: hash %s, want %s", c.key, got, c.want)
		}
	}
}

func TestReadOnlyMode(t *testing.T) {
	for _, tc := range []struct {
		name     string
		damage   func([]byte) []byte
		iter     int // the iteration the snapshot replays to
		warnings int
	}{
		{"intact", func(raw []byte) []byte { return raw }, 2, 0},
		{"torn-tail", tornTail, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := testKey()
			m, _ := Create(nil, dir, key)
			m.AppendIteration(testRecord(1))
			m.AppendIteration(testRecord(2))
			m.Close()
			path := filepath.Join(dir, JournalName)
			raw, _ := os.ReadFile(path)
			before := tc.damage(raw)
			os.WriteFile(path, before, 0o644)

			ro, err := Open(nil, dir, key, true)
			if err != nil {
				t.Fatal(err)
			}
			if !ro.ReadOnly() {
				t.Error("ReadOnly() = false")
			}
			if snap := ro.Snapshot(); snap == nil || snap.Iter != tc.iter {
				t.Fatalf("read-only open must still replay to iteration %d, got %+v", tc.iter, snap)
			}
			if got := len(ro.Warnings()); got != tc.warnings {
				t.Errorf("want %d warnings, got %v", tc.warnings, ro.Warnings())
			}
			for _, w := range ro.Warnings() {
				if strings.Contains(w, "truncated") {
					t.Errorf("read-only open claims a truncation it never made: %q", w)
				}
			}
			if err := ro.AppendIteration(testRecord(3)); err != nil {
				t.Fatal(err)
			}
			if err := ro.AppendFinal("Verified", ""); err != nil {
				t.Fatal(err)
			}
			ro.Close()
			after, _ := os.ReadFile(path)
			if string(before) != string(after) {
				t.Error("read-only manager modified the journal")
			}
		})
	}
}

func TestReadOnlyMissingJournal(t *testing.T) {
	dir := t.TempDir()
	ro, err := Open(nil, dir, testKey(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Snapshot() != nil {
		t.Error("missing journal should give a nil snapshot")
	}
	if _, err := os.Stat(filepath.Join(dir, JournalName)); !os.IsNotExist(err) {
		t.Error("read-only open of a missing journal must not create one")
	}
}

func TestOpenMissingCreates(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	m, err := Open(nil, dir, key, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != nil {
		t.Error("fresh journal should have nil snapshot")
	}
	m.AppendIteration(testRecord(1))
	m.Close()
	re, err := Open(nil, dir, key, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if snap := re.Snapshot(); snap == nil || snap.Iter != 1 {
		t.Fatalf("want iteration 1, got %+v", snap)
	}
}

func TestNilManagerSafe(t *testing.T) {
	var m *Manager
	if err := m.AppendIteration(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendFinal("Verified", ""); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != nil || m.Warnings() != nil || m.Commits() != 0 || m.Err() != nil || m.ReadOnly() {
		t.Error("nil manager accessors must be inert")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
