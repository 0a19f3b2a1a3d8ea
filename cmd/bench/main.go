// Command bench is the repository's end-to-end benchmark. It runs the
// paper's corpus (internal/corpus) through the library's public entry
// points in one process, gates every run's output, and prints each metric
// BENCHMARK.json names, with its unit. The last line of standard output
// is the result as one JSON object.
//
// Usage:
//
//	bench -workload drivers-cegar -seed 1 -seconds 24 -trace 0
//	bench -workload table2-c2bp -seed 1 -trace 1 -spans spans.json
//	bench -workload bebop-check -seed 3 -o results.jsonl
//	bench -check parent.jsonl change.jsonl
//
// Run it from the repository root: -check reads the bounds from
// BENCHMARK.json there.
//
// -trace 0 runs untraced and reports the end-to-end metrics; -trace 1
// alternates untraced and traced passes and reports the per-layer ones.
// The command exits 1 when any run's output is wrong or differs from that
// subject's other runs. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "shuffles subject order within each pass, and nothing else")
	seconds := fs.Float64("seconds", 24, "length of the timed window; the last pass always completes")
	traced := fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	spans := fs.String("spans", "", "Chrome trace_event file for a traced run's spans (default .bench_build/spans-<workload>.json)")
	out := fs.String("o", "", "also append the result, with workload and seed, as one JSON line to this file")
	check := fs.Bool("check", false, "compare two files of -o results against BENCHMARK.json's bounds: bench -check a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -check a.jsonl b.jsonl (from the repository root)")
			return 2
		}
		ok, err := runCheck("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d: must be 0 or 1\n", *traced)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "bench: -seconds %v: must not be negative\n", *seconds)
		return 2
	}
	cfg := config{
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		traced:      *traced == 1,
		setups:      defaultSetups,
		setupWindow: defaultSetupWindow,
	}
	m, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.traced {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		if err := m.spans.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	mets := m.metrics()
	res := m.result(mets)
	printResult(stdout, m, mets, res)
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, f := range m.failures {
		fmt.Fprintln(stderr, "bench: FAIL", f)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a -o file: a result and what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

func (m *measurement) result(mets []metric) result {
	res := result{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, mt := range mets {
		res.Metrics[mt.name] = metricValue{Value: mt.value, Unit: mt.unit}
	}
	return res
}

func printResult(w io.Writer, m *measurement, mets []metric, res result) {
	fmt.Fprintf(w, "workload %s: %d passes of %d subjects, %d runs attempted, %d failed\n",
		m.workload, m.passes, len(m.subjects), res.Attempted, res.Failed)
	for _, mt := range mets {
		line := fmt.Sprintf("  %-28s %14.6g %s", mt.name, mt.value, mt.unit)
		if mt.note != "" {
			line += "  (" + mt.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // every value is a finite float by construction
	}
	fmt.Fprintln(w, string(b))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
