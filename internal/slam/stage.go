package slam

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// StageError attributes a pipeline failure to the stage that produced it
// (frontend, abstract, bebop, newton). A panicking stage is converted into
// a StageError with Panicked set and the (trimmed) stack in the message,
// so a crash inside one stage surfaces as a diagnosable error instead of
// taking the whole process down.
type StageError struct {
	// Stage is the pipeline stage name: "frontend", "abstract", "bebop"
	// or "newton".
	Stage string
	// Panicked reports that the stage crashed (the wrapped error carries
	// the panic value and stack) rather than returning an error.
	Panicked bool
	// Err is the underlying failure.
	Err error
}

// Error names the stage and whether it failed or panicked, followed by
// the underlying error.
func (e *StageError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("stage %s panicked: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("stage %s: %v", e.Stage, e.Err)
}

// Unwrap returns the underlying failure, for errors.Is and errors.As.
func (e *StageError) Unwrap() error { return e.Err }

// maxStackLines bounds the stack rendering inside a recovered panic; the
// top frames carry the crash site, the rest is scheduler noise.
const maxStackLines = 16

// runStage runs one pipeline stage, converting both returned errors and
// panics into *StageError. Recovery happens at the stage boundary only:
// the stage's partial side effects (e.g. statistics already accumulated)
// remain visible, which is fine because a failed stage aborts the run.
func runStage(stage string, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &StageError{
				Stage:    stage,
				Panicked: true,
				Err:      fmt.Errorf("%v\n%s", p, trimStack(debug.Stack())),
			}
		}
	}()
	if err := fn(); err != nil {
		return &StageError{Stage: stage, Err: err}
	}
	return nil
}

// trimStack keeps the first maxStackLines lines of a panic stack.
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	if len(lines) > maxStackLines {
		lines = append(lines[:maxStackLines], "\t...")
	}
	return strings.Join(lines, "\n")
}
