// Command c2bp performs predicate abstraction of a MiniC program: given a
// C source file and a predicate input file, it emits the boolean program
// BP(P, E), mirroring the paper's C2bp tool.
//
// Usage:
//
//	c2bp -preds partition.preds partition.c
//	c2bp -preds partition.preds -trace-out run.jsonl -report partition.c
package main

import (
	"flag"
	"fmt"
	"os"

	"predabs"
	"predabs/internal/checkpoint"
	"predabs/internal/cparse"
	"predabs/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	// A crash anywhere below becomes a diagnosable error exit: the
	// abstraction must never take the terminal down with a raw panic.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "c2bp: internal error: %v\n", p)
			code = 1
		}
	}()
	predFile := flag.String("preds", "", "predicate input file (required)")
	maxCube := flag.Int("maxcube", 3, "maximum cube length in the F computation (0 = unlimited)")
	noCone := flag.Bool("nocone", false, "disable the cone-of-influence optimization")
	noEnforce := flag.Bool("noenforce", false, "do not emit enforce invariants")
	jobs := flag.Int("j", 0, "cube-search worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	absEngine := flag.String("abs-engine", "cubes", "abstraction engine: cubes (per-cube prover queries) or models (incremental model enumeration)")
	stats := flag.Bool("stats", false, "print abstraction statistics and per-stage timings to stderr")
	obsFlags := obs.Register()
	flag.Parse()

	if *predFile == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: c2bp [-j N] [-stats] -preds <predfile> <source.c>")
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "c2bp: flag -j: %d: must not be negative (0 = GOMAXPROCS)\n", *jobs)
		return 2
	}
	if *maxCube < 0 {
		fmt.Fprintf(os.Stderr, "c2bp: flag -maxcube: %d: must not be negative (0 = unlimited)\n", *maxCube)
		return 2
	}
	if !predabs.ValidEngine(*absEngine) {
		fmt.Fprintf(os.Stderr, "c2bp: flag -abs-engine: %q: must be %q or %q\n",
			*absEngine, predabs.EngineCubes, predabs.EngineModels)
		return 2
	}
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "c2bp:", err)
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return fatal(err)
	}
	preds, err := os.ReadFile(*predFile)
	if err != nil {
		return fatal(err)
	}
	tracer, finish, err := obsFlags.Start()
	if err != nil {
		return fatal(err)
	}
	prog, err := predabs.Load(string(src))
	if err != nil {
		finish()
		return fatalFile(flag.Arg(0), err)
	}
	opts := predabs.DefaultOptions()
	opts.MaxCubeLen = *maxCube
	opts.ConeOfInfluence = !*noCone
	opts.EmitEnforce = !*noEnforce
	opts.Jobs = *jobs
	if *absEngine == "" {
		*absEngine = predabs.EngineCubes
	}
	opts.Engine = *absEngine
	opts.Tracer = tracer
	if _, err := cparse.ParsePredFile(string(preds)); err != nil {
		finish()
		return fatalFile(*predFile, err)
	}
	// The key pins what this abstraction computes; -j and wall-clock
	// limits stay out (worker-count-independent output, environmental
	// degradations never persisted).
	ckpt, err := obsFlags.OpenCheckpoint(checkpoint.CompatKey{
		Tool: "c2bp", Version: predabs.Version,
		Program: string(src), Spec: string(preds),
		MaxCubeLen:  opts.MaxCubeLen,
		CubeBudget:  int64(obsFlags.CubeBudget),
		BDDMaxNodes: int64(obsFlags.BDDMaxNodes),
		AbsEngine:   opts.Engine,
		Extra:       fmt.Sprintf("cone=%t/enforce=%t", opts.ConeOfInfluence, opts.EmitEnforce),
	}, tracer)
	if err != nil {
		finish()
		return fatal(err)
	}
	defer ckpt.Close()
	ctx, cancel := obsFlags.Context()
	defer cancel()
	bprog, err := prog.AbstractCheckpointed(ctx, string(preds), opts, obsFlags.Limits(), ckpt)
	if err != nil {
		finish()
		return fatalFile(flag.Arg(0), err)
	}
	if err := ckpt.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "c2bp: warning: checkpointing disabled:", err)
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "c2bp:", err)
	}
	fmt.Print(bprog.Text())
	if *stats {
		s := bprog.Stats()
		fmt.Fprintf(os.Stderr, "predicates: %d\ntheorem prover calls: %d\nprover cache hits: %d\nprover cache misses: %d\nprover gave up: %d\n",
			s.Predicates, s.ProverCalls, s.CacheHits, s.CacheMisses(), s.ProverGaveUp)
		obs.WriteCubeStats(os.Stderr, s.CubeStats)
		obs.WriteProverStats(os.Stderr, s.Stats)
		fmt.Fprintf(os.Stderr, "stage parse+check+normalize: %v\nstage alias analysis: %v\nstage signatures: %v\nstage abstraction: %v\n  of which theory solving: %v\n",
			s.ParseTime, s.AliasTime, s.SignatureTime, s.AbstractTime, s.SolverTime)
		for _, pt := range s.ProcTimes {
			fmt.Fprintf(os.Stderr, "  proc %s: %v\n", pt.Name, pt.D)
		}
		for _, pc := range s.ProcCubes {
			fmt.Fprintf(os.Stderr, "  proc %s: %d cube rounds, %d cubes\n", pc.Name, pc.Rounds, pc.Cubes)
		}
	}
	// A degraded abstraction is weaker but still sound, so the program
	// above is usable as-is and the exit stays 0; the truncations are
	// named on stderr so nobody mistakes it for the most precise output.
	if bprog.Degraded() {
		s := bprog.Stats()
		fmt.Fprintf(os.Stderr, "c2bp: output soundly weakened by resource limits (degraded procs: %d, prover timeouts: %d):\n",
			len(s.DegradedProcs), s.ProverTimeouts)
		for _, d := range s.Degradations {
			fmt.Fprintf(os.Stderr, "  stage %-8s limit %-14s %s (x%d)\n", d.Stage, d.Limit, d.Detail, d.Count)
		}
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "c2bp:", err)
	return 1
}

// fatalFile attributes an input error to its file; the parser errors
// already carry the line, so this yields file:line diagnostics.
func fatalFile(name string, err error) int {
	fmt.Fprintf(os.Stderr, "c2bp: %s: %v\n", name, err)
	return 1
}
