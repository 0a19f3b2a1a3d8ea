// Command bebop model checks a boolean program: it computes the reachable
// states of every statement by interprocedural dataflow analysis over
// BDDs and reports whether any assert can fail, mirroring the paper's
// Bebop tool.
//
// Usage:
//
//	bebop -entry main program.bp
//	bebop -entry partition -invariant partition:L program.bp
//	bebop -trace-out run.jsonl -report -entry main program.bp
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"predabs"
	"predabs/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	// Convert any internal crash into a diagnosable error exit.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "bebop: internal error: %v\n", p)
			code = 1
		}
	}()
	entry := flag.String("entry", "main", "entry procedure")
	invariant := flag.String("invariant", "", "print the invariant at proc:label")
	allInvariants := flag.Bool("invariants", false, "print the invariant at every labelled statement")
	showTrace := flag.Bool("trace", false, "print a counterexample trace for a reachable violation")
	stats := flag.Bool("stats", false, "print fixpoint statistics to stderr")
	obsFlags := obs.Register(obs.BDDLimit)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bebop -entry <proc> [-invariant proc:label] <program.bp>")
		return 2
	}
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bebop:", err)
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return fatal(err)
	}
	bprog, err := predabs.ParseBooleanProgram(string(src))
	if err != nil {
		return fatalFile(flag.Arg(0), err)
	}
	tracer, finish, err := obsFlags.Start()
	if err != nil {
		return fatal(err)
	}
	ctx, cancel := obsFlags.Context()
	defer cancel()
	res, err := bprog.CheckCtx(ctx, *entry, tracer, obsFlags.Limits())
	if err != nil {
		finish()
		return fatal(err)
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "bebop:", err)
	}
	if *stats {
		s := res.Stats()
		fmt.Fprintf(os.Stderr, "fixpoint iterations: %d\nfixpoint time: %v\n",
			s.Iterations, s.FixpointTime)
		obs.WriteProcIterations(os.Stderr, s.IterationsByProc)
	}
	if *invariant != "" {
		parts := strings.SplitN(*invariant, ":", 2)
		if len(parts) != 2 {
			return fatal(fmt.Errorf("bad -invariant %q, want proc:label", *invariant))
		}
		inv, err := res.InvariantAt(parts[0], parts[1])
		if err != nil {
			return fatal(err)
		}
		fmt.Printf("invariant at %s:\n  %s\n", *invariant, inv)
	}
	if *allInvariants {
		for _, line := range res.LabelledInvariants() {
			fmt.Println(line)
		}
	}
	if proc, stmt, bad := res.ErrorReachable(); bad {
		// Failures found by a truncated fixpoint are genuine (the
		// explored set under-approximates reachability), so degradation
		// does not soften this verdict.
		fmt.Printf("RESULT: assertion violation reachable at %s (statement %d)\n", proc, stmt)
		if *showTrace {
			steps, ok := res.ErrorTrace()
			if ok {
				fmt.Println("trace:")
				for _, s := range steps {
					fmt.Println("  " + s)
				}
			} else {
				fmt.Println("trace: (extraction failed)")
			}
		}
		return 1
	}
	if reason, degraded := res.Degraded(); degraded {
		// A failure-free truncated fixpoint proves nothing: the answer
		// is unknown, with the partial exploration named.
		fmt.Printf("RESULT: unknown (fixpoint truncated by limit %q; no violation found in the explored states)\n", reason)
		for _, d := range res.Degradations() {
			fmt.Fprintf(os.Stderr, "bebop: degraded: stage %s limit %s %s (x%d)\n", d.Stage, d.Limit, d.Detail, d.Count)
		}
		return 2
	}
	fmt.Println("RESULT: no assertion violation is reachable")
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bebop:", err)
	return 1
}

// fatalFile attributes an input error to its file; parser errors carry
// the line, yielding file:line diagnostics.
func fatalFile(name string, err error) int {
	fmt.Fprintf(os.Stderr, "bebop: %s: %v\n", name, err)
	return 1
}
