// CLI flag-validation coverage: nonsensical flag values must be
// rejected up front with a diagnostic naming the flag and exit code 2
// (usage), before any file is read — plus tracelint's `-` stdin mode.
package cmdtest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const flagsProbeC = `void main(int x) { if (x > 3) { assert(x > 1); } }`

// TestFlagValidationExitCodes sweeps the rejected flag values across
// slam, c2bp and bebop. Every case must exit 2 and name the offending
// flag on stderr; pointing the tools at a nonexistent input proves
// validation fires before I/O.
func TestFlagValidationExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "does-not-exist")
	type flagCase struct {
		bin  string
		args []string
		want string // stderr substring naming the rejected flag
	}
	cases := []flagCase{
		{"slam", []string{"-j", "1", missing}, "flag provided but not defined: -j"},
		{"slam", []string{"-maxiters", "0", missing}, "flag -maxiters"},
		{"slam", []string{"-maxiters", "-3", missing}, "flag -maxiters"},
		{"slam", []string{"-timeout", "0s", missing}, "flag -timeout"},
		{"slam", []string{"-timeout", "-5s", missing}, "flag -timeout"},
		{"slam", []string{"-query-timeout", "-1ms", missing}, "flag -query-timeout"},
		{"slam", []string{"-cube-budget", "-1", missing}, "flag -cube-budget"},
		{"slam", []string{"-bdd-max-nodes", "-1", missing}, "flag -bdd-max-nodes"},
		{"c2bp", []string{"-j", "1", "-preds", missing, missing}, "flag provided but not defined: -j"},
		{"c2bp", []string{"-maxcube", "-1", "-preds", missing, missing}, "flag -maxcube"},
		{"c2bp", []string{"-timeout", "0s", "-preds", missing, missing}, "flag -timeout"},
		{"bebop", []string{"-timeout", "-1s", missing}, "flag -timeout"},
		{"bebop", []string{"-bdd-max-nodes", "-7", missing}, "flag -bdd-max-nodes"},
	}
	// Journaling is the SLAM loop's alone, and each tool takes only the
	// limits its pipeline reads: c2bp runs no Bebop, bebop no prover.
	for _, f := range []string{"-state", "-resume", "-no-persist", "-bdd-max-nodes"} {
		cases = append(cases, flagCase{"c2bp", []string{f, "1", "-preds", missing, missing}, "flag provided but not defined: " + f})
	}
	for _, f := range []string{"-state", "-resume", "-no-persist", "-query-timeout", "-cube-budget"} {
		cases = append(cases, flagCase{"bebop", []string{f, "1", missing}, "flag provided but not defined: " + f})
	}
	for _, c := range cases {
		name := c.bin + " " + strings.Join(c.args[:len(c.args)-1], " ")
		out, code := run(t, c.bin, c.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", name, code, out)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: diagnostic does not name %q:\n%s", name, c.want, out)
		}
	}

	// The defaults stay valid: an omitted -timeout means no deadline.
	src := write(t, "ok.c", flagsProbeC)
	if out, code := run(t, "slam", "-entry", "main", src); code != 0 {
		t.Errorf("slam: exit %d\n%s", code, out)
	}

	// slam keeps all twelve shared flags: a journaling run with every
	// sink and limit set, then a read-only resume of its journal with
	// the same deterministic limits.
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	shared := func(tag string) []string {
		return []string{
			"-trace-out", filepath.Join(dir, tag+".jsonl"),
			"-trace-chrome", filepath.Join(dir, tag+".json"),
			"-report", "-report-json", filepath.Join(dir, tag+"-report.json"),
			"-pprof", filepath.Join(dir, tag+".prof"),
			"-timeout", "1m", "-query-timeout", "1m",
			"-cube-budget", "1000", "-bdd-max-nodes", "100000",
			"-state", state,
		}
	}
	if out, code := run(t, "slam", append(shared("first"), "-entry", "main", src)...); code != 0 {
		t.Errorf("slam with the shared flags: exit %d\n%s", code, out)
	}
	resume := append(shared("resume"), "-resume", "-no-persist", "-entry", "main", src)
	if out, code := run(t, "slam", resume...); code != 0 || !strings.Contains(out, "resumed after iteration") {
		t.Errorf("slam -resume -no-persist: exit %d\n%s", code, out)
	}
}

// TestTracelintStdin pipes a real slam trace into `tracelint -` and a
// damaged one after it: the dash must read stdin, with the ordinary
// exit-code contract (0 valid, 1 schema violation).
func TestTracelintStdin(t *testing.T) {
	src := write(t, "probe.c", flagsProbeC)
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	if out, code := run(t, "slam", "-trace-out", jsonl, "-entry", "main", src); code != 0 {
		t.Fatalf("slam -trace-out: exit %d\n%s", code, out)
	}
	raw, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}

	out, code := runStdin(t, raw, "tracelint", "-")
	if code != 0 || !strings.Contains(out, "<stdin>") {
		t.Fatalf("tracelint - on a valid trace: exit %d\n%s", code, out)
	}
	out, code = runStdin(t, []byte(`{"ts":"not-an-event"}`+"\n"), "tracelint", "-")
	if code != 1 {
		t.Fatalf("tracelint - on a broken trace: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "<stdin>") {
		t.Fatalf("stdin lint errors must be attributed to <stdin>:\n%s", out)
	}
}

// runStdin is run with the given bytes fed to the tool's stdin.
func runStdin(t *testing.T, stdin []byte, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stdin = bytes.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", bin, err, out)
	}
	return string(out), code
}
