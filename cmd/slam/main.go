// Command slam statically checks a temporal safety property of a MiniC
// program by iterative predicate abstraction (C2bp), model checking
// (Bebop) and predicate discovery (Newton) — the SLAM toolkit's process.
//
// Usage:
//
//	slam -spec locking.slic -entry main driver.c
//	slam -entry main program_with_asserts.c
//	slam -trace-out run.jsonl -report -explain -entry main program.c
//
// The run itself (pipeline wiring, checkpointing, output rendering)
// lives in internal/runner, shared with the predabsd verification
// daemon so daemon verdicts are byte-identical to direct slam runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"predabs"
	"predabs/internal/obs"
	"predabs/internal/runner"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	// Stage panics are already converted to StageErrors inside the
	// pipeline and runner.Run nets the rest of the run; this catches
	// flag handling and file reading so the CLI never dies raw.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "slam: internal error: %v\n", p)
			code = 1
		}
	}()
	specFile := flag.String("spec", "", "SLIC-style specification file (optional; without it, asserts in the source are checked)")
	entry := flag.String("entry", "main", "entry procedure")
	maxIters := flag.Int("maxiters", 10, "maximum abstraction refinement iterations")
	absEngine := flag.String("abs-engine", "cubes", "abstraction engine: cubes (per-cube prover queries) or models (incremental model enumeration)")
	stats := flag.Bool("stats", false, "print per-stage timings and prover statistics to stderr")
	explain := flag.Bool("explain", false, "render a found error path as an annotated source-level trace")
	verbose := flag.Bool("v", false, "log each refinement iteration")
	obsFlags := obs.Register()
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: slam [-spec file] -entry <proc> <source.c>")
		return 2
	}
	if *maxIters <= 0 {
		fmt.Fprintf(os.Stderr, "slam: flag -maxiters: %d: must be positive\n", *maxIters)
		return 2
	}
	if !predabs.ValidEngine(*absEngine) {
		fmt.Fprintf(os.Stderr, "slam: flag -abs-engine: %q: must be %q or %q\n",
			*absEngine, predabs.EngineCubes, predabs.EngineModels)
		return 2
	}
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "slam:", err)
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "slam:", err)
		return 1
	}
	var specSrc []byte
	if *specFile != "" {
		if specSrc, err = os.ReadFile(*specFile); err != nil {
			fmt.Fprintln(os.Stderr, "slam:", err)
			return 1
		}
	}
	code, _ = runner.Run(runner.Input{
		SourceName: flag.Arg(0),
		Source:     string(src),
		Spec:       string(specSrc),
		HasSpec:    *specFile != "",
		Entry:      *entry,
		MaxIters:   *maxIters,
		Engine:     *absEngine,
		Stats:      *stats,
		Explain:    *explain,
		Verbose:    *verbose,
		Obs:        obsFlags,
	}, os.Stdout, os.Stderr)
	return code
}
