// Package cmdtest smoke-tests the command-line tools end to end: the
// binaries are built once with the Go toolchain, then exercised on
// temporary files, checking the c2bp → bebop pipeline composes through
// the boolean-program surface syntax and that slam reports the right
// verdicts and exit codes.
package cmdtest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "predabs-bin-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir, "predabs/cmd/c2bp", "predabs/cmd/bebop", "predabs/cmd/slam", "predabs/cmd/tracelint")
	build.Dir = repoRoot()
	if out, err := build.CombinedOutput(); err != nil {
		panic("building tools: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd)) // internal/cmdtest -> repo root
}

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", bin, err, out)
	}
	return string(out), code
}

const partitionC = `
typedef struct cell { int val; struct cell* next; } *list;
list partition(list *l, int v) {
  list curr, prev, newl, nextCurr;
  curr = *l;
  prev = NULL;
  newl = NULL;
  while (curr != NULL) {
    nextCurr = curr->next;
    if (curr->val > v) {
      if (prev != NULL) { prev->next = nextCurr; }
      if (curr == *l) { *l = nextCurr; }
      curr->next = newl;
L:    newl = curr;
    } else {
      prev = curr;
    }
    curr = nextCurr;
  }
  return newl;
}
`

const partitionPreds = `
partition:
  curr == NULL, prev == NULL, curr->val > v, prev->val > v
`

func TestC2bpThenBebopPipeline(t *testing.T) {
	cFile := write(t, "partition.c", partitionC)
	pFile := write(t, "partition.preds", partitionPreds)

	out, code := run(t, "c2bp", "-preds", pFile, cFile)
	if code != 0 {
		t.Fatalf("c2bp exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "void partition() begin") {
		t.Fatalf("c2bp output missing procedure:\n%s", out)
	}
	bpFile := write(t, "partition.bp", out)

	out2, code2 := run(t, "bebop", "-entry", "partition", "-invariant", "partition:L", bpFile)
	if code2 != 0 {
		t.Fatalf("bebop exit %d:\n%s", code2, out2)
	}
	if !strings.Contains(out2, "no assertion violation") {
		t.Errorf("bebop verdict missing:\n%s", out2)
	}
	// The Section 2.2 invariant components must appear.
	for _, frag := range []string{"!{curr == NULL}", "{curr->val > v}"} {
		if !strings.Contains(out2, frag) {
			t.Errorf("invariant missing %q:\n%s", frag, out2)
		}
	}
}

func TestC2bpStatsFlag(t *testing.T) {
	cFile := write(t, "p.c", partitionC)
	pFile := write(t, "p.preds", partitionPreds)
	out, code := run(t, "c2bp", "-stats", "-preds", pFile, cFile)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "theorem prover calls:") {
		t.Errorf("stats missing:\n%s", out)
	}
}

func TestC2bpBadUsage(t *testing.T) {
	_, code := run(t, "c2bp")
	if code == 0 {
		t.Error("missing args should fail")
	}
}

const lockSpec = `
state { int locked = 0; }
event AcquireLock entry { if (locked == 1) { abort; } locked = 1; }
event ReleaseLock entry { if (locked == 0) { abort; } locked = 0; }
`

func TestSlamVerified(t *testing.T) {
	cFile := write(t, "good.c", `
void AcquireLock(void) { }
void ReleaseLock(void) { }
void main(void) {
  AcquireLock();
  ReleaseLock();
}
`)
	sFile := write(t, "lock.slic", lockSpec)
	out, code := run(t, "slam", "-spec", sFile, "-entry", "main", cFile)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT: verified") {
		t.Errorf("verdict:\n%s", out)
	}
}

func TestSlamErrorFoundExitCode(t *testing.T) {
	cFile := write(t, "bad.c", `
void AcquireLock(void) { }
void ReleaseLock(void) { }
void main(void) {
  AcquireLock();
  AcquireLock();
}
`)
	sFile := write(t, "lock.slic", lockSpec)
	out, code := run(t, "slam", "-spec", sFile, "-entry", "main", cFile)
	if code != 1 {
		t.Fatalf("exit %d (want 1):\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT: error-found") || !strings.Contains(out, "error path:") {
		t.Errorf("verdict/trace:\n%s", out)
	}
}

func TestSlamAssertsWithoutSpec(t *testing.T) {
	cFile := write(t, "asserts.c", `
void main(int x) {
  int y;
  y = 1;
  if (x > 0) { y = 2; }
  assert(y > 0);
}
`)
	out, code := run(t, "slam", "-entry", "main", cFile)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT: verified") {
		t.Errorf("verdict:\n%s", out)
	}
}

func TestBebopTraceAndInvariantsFlags(t *testing.T) {
	bpFile := write(t, "trace.bp", `
void main() begin
  decl a;
 start:
  a := *;
  assert(a);
  return;
end
`)
	out, code := run(t, "bebop", "-entry", "main", "-trace", "-invariants", bpFile)
	if code != 1 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "main:start:") {
		t.Errorf("-invariants output missing:\n%s", out)
	}
	if !strings.Contains(out, "trace:") || !strings.Contains(out, "assert(a)") {
		t.Errorf("-trace output missing:\n%s", out)
	}
}

func TestBebopViolationExitCode(t *testing.T) {
	bpFile := write(t, "bad.bp", `
void main() begin
  decl a;
  a := *;
  assert(a);
  return;
end
`)
	out, code := run(t, "bebop", "-entry", "main", bpFile)
	if code != 1 {
		t.Fatalf("exit %d (want 1):\n%s", code, out)
	}
	if !strings.Contains(out, "violation reachable") {
		t.Errorf("verdict:\n%s", out)
	}
}

const lockBadC = `
void AcquireLock(void) { }
void ReleaseLock(void) { }
void main(void) {
  AcquireLock();
  AcquireLock();
}
`

// TestSlamObservabilityFlags drives the full observability surface in one
// run: JSONL trace (validated by tracelint), Chrome export, text and JSON
// reports, -stats, whose cubes-checked count must be the JSON report's,
// and the annotated -explain rendering of the error path.
func TestSlamObservabilityFlags(t *testing.T) {
	cFile := write(t, "bad.c", lockBadC)
	sFile := write(t, "lock.slic", lockSpec)
	dir := filepath.Dir(cFile)
	jsonl := filepath.Join(dir, "run.jsonl")
	chrome := filepath.Join(dir, "run.chrome.json")
	report := filepath.Join(dir, "report.json")

	out, code := run(t, "slam",
		"-spec", sFile, "-entry", "main",
		"-trace-out", jsonl, "-trace-chrome", chrome,
		"-report", "-report-json", report, "-stats", "-explain", cFile)
	if code != 1 {
		t.Fatalf("exit %d (want 1):\n%s", code, out)
	}
	for _, frag := range []string{
		"RESULT: error-found",
		"=== run report ===",
		"error path (annotated):",
		"[then branch taken]",
		"bad.c:",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}

	lintOut, lintCode := run(t, "tracelint", jsonl)
	if lintCode != 0 {
		t.Errorf("tracelint exit %d:\n%s", lintCode, lintOut)
	}
	if !strings.Contains(lintOut, "events ok") {
		t.Errorf("tracelint output:\n%s", lintOut)
	}

	for _, f := range []string{chrome, report} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
		if len(data) == 0 || data[0] != '{' {
			t.Errorf("%s does not look like JSON: %.40q", f, data)
		}
	}

	// The text report's line reads "cubes checked: N (in R search
	// rounds; ...)", the -stats line "cubes checked: N (reused ...)".
	m := regexp.MustCompile(`(?m)^cubes checked: (\d+) \(reused `).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("-stats has no cubes checked line:\n%s", out)
	}
	checked, _ := strconv.Atoi(m[1])
	data, _ := os.ReadFile(report)
	var rep struct {
		CubesChecked int `json:"cubes_checked"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if checked == 0 || checked != rep.CubesChecked {
		t.Errorf("-stats cubes checked %d, report cubes_checked %d", checked, rep.CubesChecked)
	}
}

// TestC2bpTraceFlags checks the abstraction-only workflow emits a valid
// trace and a report whose totals agree with -stats.
func TestC2bpTraceFlags(t *testing.T) {
	cFile := write(t, "p.c", partitionC)
	pFile := write(t, "p.preds", partitionPreds)
	jsonl := filepath.Join(filepath.Dir(cFile), "c2bp.jsonl")

	out, code := run(t, "c2bp", "-preds", pFile, "-trace-out", jsonl, "-report", "-stats", cFile)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "=== run report ===") {
		t.Errorf("report missing:\n%s", out)
	}
	if !strings.Contains(out, "cube-search rounds:") {
		t.Errorf("-stats cube round count missing:\n%s", out)
	}
	if lintOut, lintCode := run(t, "tracelint", "-q", jsonl); lintCode != 0 {
		t.Errorf("tracelint exit %d:\n%s", lintCode, lintOut)
	}
}

// TestBebopStatsByProc checks -stats reports per-procedure fixpoint
// iteration counts.
func TestBebopStatsByProc(t *testing.T) {
	bpFile := write(t, "s.bp", `
void main() begin
  decl a;
  a := *;
  return;
end
`)
	out, code := run(t, "bebop", "-entry", "main", "-stats", bpFile)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "fixpoint iterations:") || !strings.Contains(out, "proc main:") {
		t.Errorf("-stats per-proc counts missing:\n%s", out)
	}
}

// TestTracelintRejectsInvalid feeds tracelint a file violating the event
// schema.
func TestTracelintRejectsInvalid(t *testing.T) {
	bad := write(t, "bad.jsonl", `{"ts":1,"type":"event","cat":"nope","name":"what"}`+"\n")
	out, code := run(t, "tracelint", bad)
	if code != 1 {
		t.Errorf("exit %d (want 1):\n%s", code, out)
	}
	if !strings.Contains(out, "line 1") {
		t.Errorf("diagnostic missing line number:\n%s", out)
	}
}
