package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testLogMagic = "PREDABSTLOG\x00"

func openTestLog(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := OpenLog(nil, path, testLogMagic, func(p []byte) { got = append(got, string(p)) })
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "events.log")
	l, got := openTestLog(t, path)
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := []string{"one", "two", `{"type":"three"}`}
	for _, r := range want {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, got = openTestLog(t, path)
	defer l.Close()
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replay mismatch: got %q want %q", got, want)
	}
	if len(l.Warnings()) != 0 {
		t.Fatalf("unexpected warnings: %v", l.Warnings())
	}
	// Appends after a replayed open land after the existing records.
	if err := l.Append([]byte("four")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got = openTestLog(t, path)
	if len(got) != 4 || got[3] != "four" {
		t.Fatalf("post-replay append lost: %q", got)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openTestLog(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the last record: a torn append.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := openTestLog(t, path)
	defer l.Close()
	if len(got) != 2 || got[1] != "record-1" {
		t.Fatalf("torn tail replay: got %q, want the first two records", got)
	}
	if len(l.Warnings()) == 0 {
		t.Fatal("torn tail repaired without a warning")
	}
	// The truncation is durable: the next append starts a clean record.
	if err := l.Append([]byte("replacement")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got = openTestLog(t, path)
	if len(got) != 3 || got[2] != "replacement" {
		t.Fatalf("append after repair: got %q", got)
	}
}

func TestLogBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	if err := os.WriteFile(path, []byte("NOTTHELOGFMT-and-some-content"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(nil, path, testLogMagic, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bad magic: got %v, want *CorruptError", err)
	}
}
