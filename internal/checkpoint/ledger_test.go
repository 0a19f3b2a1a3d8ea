// Tests for the generic folded ledger, over a toy key/value record. The
// daemon and fleet suites pin each real fold; these cover the lifecycle
// edges neither owner exercises on its own.
package checkpoint_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"predabs/internal/checkpoint"
)

const toyMagic = "PREDABSTOY1\x00"

type toyRec struct {
	Key string `json:"k"`
	Val int    `json:"v"`
}

// toyState keeps each key's last value and how many records replayed.
type toyState struct {
	vals map[string]int
	recs int
}

func newToyState() *toyState { return &toyState{vals: map[string]int{}} }

func (st *toyState) fold(rec toyRec) {
	st.vals[rec.Key] = rec.Val
	st.recs++
}

// compact keeps one record per key; nil when every record is live.
func (st *toyState) compact() []toyRec {
	if st.recs == len(st.vals) {
		return nil
	}
	var out []toyRec
	for _, k := range []string{"a", "b", "c"} {
		if v, ok := st.vals[k]; ok {
			out = append(out, toyRec{k, v})
		}
	}
	return out
}

func openToy(t *testing.T, path string, snapshotBytes int64) (*checkpoint.Ledger[toyRec], *toyState, []string) {
	t.Helper()
	l, st, warnings, err := checkpoint.OpenLedger(nil, path, toyMagic, snapshotBytes,
		newToyState, (*toyState).fold, (*toyState).compact)
	if err != nil {
		t.Fatalf("OpenLedger: %v", err)
	}
	return l, st, warnings
}

func writeToy(t *testing.T, path string, recs ...toyRec) {
	t.Helper()
	l, _, _ := openToy(t, path, 0)
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskChaosLedgerNilCompactLeavesFile: past the threshold, a fold
// with nothing to reclaim must not rewrite the file at all.
func TestDiskChaosLedgerNilCompactLeavesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.predabs")
	writeToy(t, path, toyRec{"a", 1}, toyRec{"b", 2})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	l, st, warnings := openToy(t, path, 1)
	defer l.Close()
	if len(warnings) != 0 || l.Reclaimed() != 0 {
		t.Fatalf("nil compact folded: reclaimed %d, warnings %v", l.Reclaimed(), warnings)
	}
	if st.vals["a"] != 1 || st.vals["b"] != 2 || st.recs != 2 {
		t.Fatalf("replayed state %+v", st)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("nil compact changed the file (err %v)", err)
	}
	if info2, err := os.Stat(path); err != nil || !os.SameFile(info, info2) {
		t.Fatalf("nil compact replaced the file (err %v)", err)
	}
}

// TestDiskChaosLedgerTornTailWarningSurvivesFold: the first replay's
// torn-tail repair is reported even though a successful fold then
// replays the new generation.
func TestDiskChaosLedgerTornTailWarningSurvivesFold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.predabs")
	writeToy(t, path, toyRec{"a", 1}, toyRec{"a", 2}, toyRec{"b", 3})
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte("\xde\xadtorn-toy-frame"))
	fh.Close()

	l, st, warnings := openToy(t, path, 1)
	defer l.Close()
	if l.Reclaimed() <= 0 {
		t.Fatalf("fold did not happen: warnings %v", warnings)
	}
	joined := strings.Join(warnings, "\n")
	if !strings.Contains(joined, "truncated to last good record") {
		t.Fatalf("torn-tail repair lost by the fold: %v", warnings)
	}
	if !strings.Contains(joined, "snapshot fold reclaimed") {
		t.Fatalf("fold outcome not reported: %v", warnings)
	}
	if st.vals["a"] != 2 || st.vals["b"] != 3 || st.recs != 2 {
		t.Fatalf("folded state %+v", st)
	}
}

// TestDiskChaosLedgerAppendAfterClose: Close races appends; each append
// either lands or reports ErrLedgerClosed, and Size/Err stay callable.
func TestDiskChaosLedgerAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.predabs")
	l, _, _ := openToy(t, path, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := l.Append(toyRec{"c", i}); err != nil && !errors.Is(err, checkpoint.ErrLedgerClosed) {
					t.Errorf("append racing close: %v", err)
				}
				l.Size()
				l.Err()
			}
		}()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := l.Append(toyRec{"a", 1}); !errors.Is(err, checkpoint.ErrLedgerClosed) {
		t.Fatalf("append after close: err = %v, want ErrLedgerClosed", err)
	}
	if l.Size() != 0 || l.Err() != nil {
		t.Fatalf("closed ledger: Size %d, Err %v", l.Size(), l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
