package checkpoint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSource/goldenPreds are a fixed subject whose prover-cache
// content must serialize identically forever: the compatibility hash
// and the byte-identical-resume guarantee both ride on this canonical
// form. If this test fails after a refactor of the cache export, the
// journal format has changed — bump formatVersion rather than updating
// the golden file in place. The cache export also drifts, with unchanged key encoding and
// ordering, when the abstraction asks a different set of queries; then
// regenerate it with -update (make golden).
const goldenSource = `
int lock;
void acquire() { assume(lock == 0); lock = 1; }
void release() { assume(lock == 1); lock = 0; }
void main(int n) {
	int got;
	got = 0;
	if (n > 0) {
		acquire();
		got = 1;
	}
	if (got == 1) {
		release();
	}
	assert(lock == 0);
}
`

const goldenPreds = `
global:
  lock == 0, lock == 1
main:
  n > 0, got == 1
`

func goldenAbstraction(t *testing.T) *prover.Prover {
	t.Helper()
	prog, err := cparse.Parse(goldenSource)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ctype.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cnorm.Normalize(info)
	if err != nil {
		t.Fatal(err)
	}
	aa := alias.Analyze(res)
	secs, err := cparse.ParsePredFile(goldenPreds)
	if err != nil {
		t.Fatal(err)
	}
	pv := prover.New()
	if _, err := abstract.Abstract(res, aa, pv, secs, abstract.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return pv
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden form: either the checkpoint journal format changed (bump formatVersion) "+
			"or the abstraction now asks a different set of prover queries (regenerate with -update).\n got:\n%s\nwant:\n%s",
			name, got, string(want))
	}
}

// TestGoldenCacheExport pins the prover-cache export: canonical (sorted
// by key) ordering and the exact key encoding, independent of shard
// layout and of the order queries were issued in.
func TestGoldenCacheExport(t *testing.T) {
	pv := goldenAbstraction(t)
	entries := pv.ExportCache()
	if len(entries) == 0 {
		t.Fatal("abstraction issued no cacheable queries")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Key >= entries[i].Key {
			t.Fatalf("export not sorted at %d: %q >= %q", i, entries[i-1].Key, entries[i].Key)
		}
	}
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "%t %q\n", e.Val, e.Key)
	}
	checkGolden(t, "cache_export.txt", sb.String())
}

// TestGoldenCacheRoundTrip: importing an export reproduces it exactly —
// the identity the warm-start path depends on.
func TestGoldenCacheRoundTrip(t *testing.T) {
	pv := goldenAbstraction(t)
	entries := pv.ExportCache()
	fresh := prover.New()
	fresh.ImportCache(entries)
	back := fresh.ExportCache()
	if len(back) != len(entries) {
		t.Fatalf("round trip changed size: %d -> %d", len(entries), len(back))
	}
	for i := range entries {
		if back[i] != entries[i] {
			t.Fatalf("round trip changed entry %d: %+v -> %+v", i, entries[i], back[i])
		}
	}
	if fresh.CacheSize() != len(entries) {
		t.Fatalf("CacheSize = %d, want %d", fresh.CacheSize(), len(entries))
	}
}
