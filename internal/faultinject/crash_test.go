// Kill/resume chaos harness: builds the real slam binary, SIGKILLs it
// mid-commit via the deterministic checkpoint crash hook, resumes from
// the surviving journal and asserts the resumed run is byte-identical
// to an uninterrupted one — at every commit point, in full-frame and
// torn-frame variants, sequentially and at -j 8. The companion
// TestCorrupt* tests feed deliberately damaged journals (bit flips,
// truncation, wrong compatibility hash) back to slam and assert they
// are detected and recovered from — truncation to the last good record
// or a diagnosed cold start — never trusted into a wrong answer.
//
// Run via `make crash` and `make corrupt`.
package faultinject_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"predabs/internal/checkpoint"
	"predabs/internal/corpus"
)

// maxKillPoints bounds the commit indices the matrix kills at. The
// drivers converge in 3 iterations (2 commit points); going one past
// that also exercises the "crash point never reached" path.
const maxKillPoints = 3

var slamBuild struct {
	once sync.Once
	dir  string
	path string
	err  error
}

// slamBin builds cmd/slam once per test process and returns the binary
// path. The re-exec design is the point of the harness: SIGKILL must
// hit a real process mid-fsync, not a goroutine we could unwind.
func slamBin(t *testing.T) string {
	t.Helper()
	slamBuild.once.Do(func() {
		dir, err := os.MkdirTemp("", "predabs-crash-")
		if err != nil {
			slamBuild.err = err
			return
		}
		slamBuild.dir = dir
		wd, _ := os.Getwd()
		build := exec.Command("go", "build", "-o", dir, "predabs/cmd/slam")
		build.Dir = filepath.Dir(filepath.Dir(wd)) // internal/faultinject -> repo root
		if out, err := build.CombinedOutput(); err != nil {
			slamBuild.err = fmt.Errorf("building slam: %v\n%s", err, out)
			return
		}
		slamBuild.path = filepath.Join(dir, "slam")
	})
	if slamBuild.err != nil {
		t.Fatal(slamBuild.err)
	}
	return slamBuild.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if slamBuild.dir != "" {
		os.RemoveAll(slamBuild.dir)
	}
	if predabsdBuild.dir != "" { // serve_chaos_test.go's daemon binary
		os.RemoveAll(predabsdBuild.dir)
	}
	os.Exit(code)
}

// slamRun is one process execution: stdout and stderr split (only
// stdout is part of the byte-identical contract; stderr carries resume
// and repair diagnostics), the exit code, and whether SIGKILL got it.
type slamRun struct {
	stdout, stderr string
	code           int
	killed         bool
}

func runSlam(t *testing.T, bin string, extraEnv []string, args ...string) slamRun {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	r := slamRun{stdout: out.String(), stderr: errb.String()}
	if ee, ok := err.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			r.killed = ws.Signal() == syscall.SIGKILL
			r.code = -1
		} else {
			r.code = ee.ExitCode()
		}
	} else if err != nil {
		t.Fatalf("exec slam: %v", err)
	}
	return r
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func crashEnv(commit int, torn bool) []string {
	v := fmt.Sprintf("%s=%d", checkpoint.CrashEnv, commit)
	if torn {
		v += ":torn"
	}
	return []string{v}
}

// TestCrashResumeByteIdentical is the kill/resume matrix: every Table 1
// driver × every commit point × {full frame, torn frame} × {-j 1, -j 8}.
// The resumed run's stdout and exit code must match the uninterrupted
// reference exactly — including the error-path lines for the buggy
// floppy driver — which pins both the warm-started determinism and the
// counter bookkeeping across the process boundary.
func TestCrashResumeByteIdentical(t *testing.T) {
	bin := slamBin(t)
	for _, p := range corpus.Drivers() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			src := writeFile(t, dir, p.Name+".c", p.Source)
			spec := writeFile(t, dir, p.Name+".slic", p.Spec)

			ref := runSlam(t, bin, nil, "-spec", spec, "-entry", p.Entry, src)
			wantCode := 0
			if p.ExpectError {
				wantCode = 1
			}
			if ref.killed || ref.code != wantCode {
				t.Fatalf("reference run exit %d (killed=%t), want %d:\n%s%s",
					ref.code, ref.killed, wantCode, ref.stdout, ref.stderr)
			}

			for _, jobs := range []string{"1", "8"} {
				for commit := 1; commit <= maxKillPoints; commit++ {
					for _, torn := range []bool{false, true} {
						name := fmt.Sprintf("j%s-commit%d", jobs, commit)
						if torn {
							name += "-torn"
						}
						state := filepath.Join(t.TempDir(), "state")
						crash := runSlam(t, bin, crashEnv(commit, torn),
							"-state", state, "-spec", spec, "-entry", p.Entry, "-j", jobs, src)
						if !crash.killed {
							// Fewer commit points than the kill index: the
							// hook never fired and the run completed — it
							// must agree with the reference.
							if crash.stdout != ref.stdout || crash.code != ref.code {
								t.Errorf("%s: uninterrupted -state run diverged (exit %d):\n got: %s\nwant: %s",
									name, crash.code, crash.stdout, ref.stdout)
							}
							continue
						}

						args := []string{"-state", state, "-spec", spec, "-entry", p.Entry, "-j", jobs, src}
						if !torn {
							// A torn final frame may leave zero committed
							// iterations (commit 1), where -resume rightly
							// refuses; plain -state handles both.
							args = append([]string{"-resume"}, args...)
						}
						res := runSlam(t, bin, nil, args...)
						if res.killed {
							t.Fatalf("%s: resume run was killed", name)
						}
						if res.stdout != ref.stdout || res.code != ref.code {
							t.Errorf("%s: resumed run not byte-identical (exit %d, want %d):\n got: %q\nwant: %q\nstderr: %s",
								name, res.code, ref.code, res.stdout, ref.stdout, res.stderr)
						}
						if torn && !strings.Contains(res.stderr, "journal tail invalid") {
							t.Errorf("%s: torn tail was not diagnosed on resume; stderr:\n%s", name, res.stderr)
						}
					}
				}
			}
		})
	}
}

// TestCrashResumeNeverVerifiesBuggyProgram is the soundness oracle under
// crashes: no kill/resume schedule may launder the buggy program into
// "verified". The checkpoint only persists fully decided verdicts, so a
// resumed run must rediscover the same feasible error path.
func TestCrashResumeNeverVerifiesBuggyProgram(t *testing.T) {
	const buggy = `
void main(int x) {
  if (x > 3) {
    assert(x <= 3);
  }
}
`
	bin := slamBin(t)
	dir := t.TempDir()
	src := writeFile(t, dir, "buggy.c", buggy)

	ref := runSlam(t, bin, nil, "-entry", "main", src)
	if ref.code != 1 || !strings.Contains(ref.stdout, "error-found") {
		t.Fatalf("reference run must find the error (exit %d):\n%s", ref.code, ref.stdout)
	}

	for commit := 1; commit <= maxKillPoints; commit++ {
		for _, torn := range []bool{false, true} {
			state := filepath.Join(t.TempDir(), "state")
			crash := runSlam(t, bin, crashEnv(commit, torn), "-state", state, "-entry", "main", src)
			runs := []slamRun{crash}
			if crash.killed {
				runs = append(runs, runSlam(t, bin, nil, "-state", state, "-entry", "main", src))
			}
			for i, r := range runs {
				if r.killed {
					continue
				}
				if strings.Contains(r.stdout, "RESULT: verified") {
					t.Fatalf("commit %d torn=%t run %d: kill schedule verified a buggy program:\n%s",
						commit, torn, i, r.stdout)
				}
				if r.stdout != ref.stdout || r.code != ref.code {
					t.Errorf("commit %d torn=%t run %d: diverged from reference (exit %d):\n got: %q\nwant: %q",
						commit, torn, i, r.code, r.stdout, ref.stdout)
				}
			}
		}
	}
}

// journalFromCutRun produces a journal with committed state by letting a
// -maxiters iters run stop early (the budget is outside the compatibility
// hash, so a full-budget run resumes from it).
func journalFromCutRun(t *testing.T, bin, spec, entry, src string, iters int) string {
	t.Helper()
	state := filepath.Join(t.TempDir(), "state")
	cut := runSlam(t, bin, nil, "-state", state, "-maxiters", strconv.Itoa(iters), "-spec", spec, "-entry", entry, src)
	if cut.killed || cut.code != 2 {
		t.Fatalf("cut run: exit %d (killed=%t), want 2:\n%s%s", cut.code, cut.killed, cut.stdout, cut.stderr)
	}
	journal := filepath.Join(state, checkpoint.JournalName)
	if _, err := os.Stat(journal); err != nil {
		t.Fatal(err)
	}
	return state
}

func corruptJournal(t *testing.T, state string, mutate func([]byte) []byte) {
	t.Helper()
	journal := filepath.Join(state, checkpoint.JournalName)
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptJournalColdStartsWithDiagnostic feeds slam journals whose
// prefix cannot be trusted — flipped magic, truncation into the header,
// and a compatibility-hash mismatch — and asserts each is rejected with
// a diagnostic and recovered from by a cold start that still reaches the
// reference verdict. Under -resume the same journals are a hard error,
// because -resume forbids cold starts.
func TestCorruptJournalColdStartsWithDiagnostic(t *testing.T) {
	bin := slamBin(t)
	p := corpus.Drivers()[1] // ioctl: a verified subject, 3 iterations
	dir := t.TempDir()
	src := writeFile(t, dir, p.Name+".c", p.Source)
	spec := writeFile(t, dir, p.Name+".slic", p.Spec)
	ref := runSlam(t, bin, nil, "-spec", spec, "-entry", p.Entry, src)
	if ref.code != 0 {
		t.Fatalf("reference run exit %d:\n%s", ref.code, ref.stdout)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad-magic", func(raw []byte) []byte { raw[0] ^= 0xFF; return raw }},
		{"truncated-header", func(raw []byte) []byte { return raw[:10] }},
		{"empty-file", func(raw []byte) []byte { return nil }},
		{"wrong-hash", nil}, // journal for a different program, see below
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var state string
			if tc.mutate != nil {
				state = journalFromCutRun(t, bin, spec, p.Entry, src, 1)
				corruptJournal(t, state, tc.mutate)
			} else {
				// A perfectly valid journal — for a different program: the
				// compatibility hash must reject it.
				other := corpus.Drivers()[2]
				osrc := writeFile(t, t.TempDir(), other.Name+".c", other.Source)
				state = journalFromCutRun(t, bin, spec, other.Entry, osrc, 1)
			}

			// Plain -state: diagnosed cold start, reference verdict.
			res := runSlam(t, bin, nil, "-state", state, "-spec", spec, "-entry", p.Entry, src)
			if res.stdout != ref.stdout || res.code != ref.code {
				t.Errorf("cold start diverged (exit %d, want %d):\n got: %q\nwant: %q",
					res.code, ref.code, res.stdout, ref.stdout)
			}
			if !strings.Contains(res.stderr, "cold-starting with a fresh journal") {
				t.Errorf("rejected journal not diagnosed; stderr:\n%s", res.stderr)
			}

			// The cold start rewrote the journal; corrupt it again so the
			// -resume leg sees the damaged one.
			if tc.mutate != nil {
				corruptJournal(t, state, tc.mutate)
			} else {
				state = journalFromCutRun(t, bin, spec, corpus.Drivers()[2].Entry,
					writeFile(t, t.TempDir(), "other.c", corpus.Drivers()[2].Source), 1)
			}
			res = runSlam(t, bin, nil, "-resume", "-state", state, "-spec", spec, "-entry", p.Entry, src)
			if res.code != 1 {
				t.Errorf("-resume on a rejected journal: exit %d, want 1:\n%s%s", res.code, res.stdout, res.stderr)
			}
			if !strings.Contains(res.stderr, "-resume forbids a cold start") {
				t.Errorf("-resume rejection not diagnosed; stderr:\n%s", res.stderr)
			}
		})
	}
}

// TestCorruptJournalBitFlipSweep flips one bit at offsets swept across a
// committed journal and re-runs slam against each damaged copy. The
// journal is cut after two iterations, so a flip in the second iteration
// record must truncate back to the intact first one. Whatever
// the flip hits — magic, header, a record length, a CRC, cache payload —
// the run must end in the reference verdict, byte-identical: either the
// tail is truncated back to the last intact record (repair diagnostic)
// or the whole journal is rejected (cold-start diagnostic). A flip that
// silently survives into a wrong answer fails the sweep.
//
// Two journals are swept: the one slam writes now (under written/), and
// the same journal with the "sigs" field iteration records carried
// before the journal stopped recording signatures, which the reader
// still accepts and so must still repair or reject like any other.
//
// Each subtest is named by the byte it flips. The strides are fixed, not
// derived from the journal's length, so a flip keeps its name when what
// the prover caches (and so the journal's length) changes: 188 bytes in
// the written journal and 207 in the one with signatures, the strides
// the sweep took when they were 4504 and 4953 bytes long.
func TestCorruptJournalBitFlipSweep(t *testing.T) {
	bin := slamBin(t)
	p := corpus.Drivers()[1] // ioctl
	dir := t.TempDir()
	src := writeFile(t, dir, p.Name+".c", p.Source)
	spec := writeFile(t, dir, p.Name+".slic", p.Spec)
	ref := runSlam(t, bin, nil, "-spec", spec, "-entry", p.Entry, src)
	if ref.code != 0 {
		t.Fatalf("reference run exit %d:\n%s", ref.code, ref.stdout)
	}

	pristineState := journalFromCutRun(t, bin, spec, p.Entry, src, 2)
	pristine, err := os.ReadFile(filepath.Join(pristineState, checkpoint.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	var procs []string
	for _, m := range procDef.FindAllStringSubmatch(p.Source, -1) {
		procs = append(procs, m[1])
	}

	sweep := func(t *testing.T, pristine []byte, step int) {
		// A deterministic sweep: every region of the file gets hit
		// without running the journal's length in executions.
		for off := 0; off < len(pristine); off += step {
			off := off
			t.Run(fmt.Sprintf("offset%d", off), func(t *testing.T) {
				t.Parallel()
				state := filepath.Join(t.TempDir(), "state")
				if err := os.MkdirAll(state, 0o755); err != nil {
					t.Fatal(err)
				}
				raw := append([]byte(nil), pristine...)
				raw[off] ^= 1 << (off % 8)
				if err := os.WriteFile(filepath.Join(state, checkpoint.JournalName), raw, 0o644); err != nil {
					t.Fatal(err)
				}
				res := runSlam(t, bin, nil, "-state", state, "-spec", spec, "-entry", p.Entry, src)
				if res.stdout != ref.stdout || res.code != ref.code {
					t.Errorf("bit flip at %d led to a divergent answer (exit %d, want %d):\n got: %q\nwant: %q\nstderr: %s",
						off, res.code, ref.code, res.stdout, ref.stdout, res.stderr)
				}
				diagnosed := strings.Contains(res.stderr, "cold-starting with a fresh journal") ||
					strings.Contains(res.stderr, "journal tail invalid")
				if !diagnosed {
					// The flip may land in bytes replay never re-reads (it
					// stops at the last intact record boundary) — but then
					// the replayed state must have been fully intact, which
					// the byte-identical check above already enforced.
					t.Logf("bit flip at %d produced no diagnostic (replay stopped before it)", off)
				}
			})
		}
	}
	t.Run("written", func(t *testing.T) { sweep(t, pristine, 188) })
	sweep(t, withSigs(t, pristine, procs), 207)
}

// procDef matches a top-level C function definition and captures its name.
var procDef = regexp.MustCompile(`(?m)^(?:void|int) (\w+)\(`)

// withSigs returns the journal raw with a "sigs" field in each iteration
// record, as the journal once recorded signatures: one entry per
// procedure in source order, before "cache". Each entry names only its
// procedure (the reader ignores the field, so formal and return
// predicates need not be listed). Each record is re-framed
// (little-endian u32 length and CRC32 of the payload ahead of it); every
// other byte is kept.
func withSigs(t *testing.T, raw []byte, procs []string) []byte {
	t.Helper()
	entries := make([]string, len(procs))
	for i, proc := range procs {
		entries[i] = fmt.Sprintf(`{"proc":%q}`, proc)
	}
	sigs := []byte(`"sigs":[` + strings.Join(entries, ",") + `],"cache":`)
	var out []byte
	records := 0
	for {
		start := bytes.Index(raw, []byte(`{"type":"iteration"`))
		if start < 0 {
			break
		}
		if start < checkpoint.FrameOverhead {
			t.Fatal("iteration record without a frame")
		}
		n := int(binary.LittleEndian.Uint32(raw[start-checkpoint.FrameOverhead:]))
		payload := raw[start : start+n]
		legacy := bytes.Replace(payload, []byte(`"cache":`), sigs, 1)
		if len(legacy) == len(payload) {
			t.Fatal("no cache field to put the signatures before")
		}
		out = append(out, raw[:start-checkpoint.FrameOverhead]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(legacy)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(legacy))
		out = append(out, legacy...)
		raw = raw[start+n:]
		records++
	}
	if records == 0 {
		t.Fatal("no iteration record in the journal")
	}
	return append(out, raw...)
}
