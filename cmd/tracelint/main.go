// Command tracelint validates a structured trace emitted by the predabs
// tools with -trace-out: every line must be a JSON object matching the
// event schema (known category/name taxonomy, non-negative timestamps,
// span/event duration rules, scalar field values, and the fields each
// event of a kind must carry: a prover.query reports its verdict, cache
// hit and search effort — nodes, leaves, fm_runs and eq_probes).
//
// With -events it instead validates job-event streams — the NDJSON the
// daemon serves at GET /jobs/{id}/events (exported from each job's
// durable events.predabs log): sequence numbers must be dense and
// strictly increasing, and every record's payload must match its type
// (state transitions name known states, spawn/kill carry an attempt,
// progress heartbeats carry the CEGAR iteration counters). A log
// rotated under -events-max-bytes may open with one "truncate" record
// declaring the discarded range (its dropped count equals its seq, and
// the retained stream stays dense after it); the marker is only legal
// as the first record of a stream.
//
// With -fleet it validates fleet frontend event streams — the NDJSON a
// predabsd -frontend serves at the same route, synthesized from its
// durable ledger: an admit record first, dense sequence numbers,
// dispatch/lease/adopt payload rules, and exactly one terminal verdict
// (a failed verdict must retreat to outcome "unknown"). A ledger
// compacted under -ledger-snapshot-bytes declares its elisions: a
// verdict may carry a "dropped" count, and the stream's sequence then
// advances by exactly that gap — dropped counts anywhere else, or
// silent gaps, are violations.
//
// Usage:
//
//	tracelint run.jsonl [more.jsonl ...]
//	slam -trace-out /dev/stdout prog.c | tracelint
//	predabsd artifact | tracelint -
//	curl -s $DAEMON/jobs/job-000001/events | tracelint -events -
//	curl -s $FRONTEND/jobs/job-000001/events | tracelint -fleet -
//
// A "-" argument reads standard input, so daemon job artifacts can be
// piped through the validator without temp files even alongside file
// arguments.
//
// Exit status 0 when every line validates, 1 on the first invalid line
// (reported with its file and line number), 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"predabs/internal/fleet"
	"predabs/internal/server"
	"predabs/internal/trace"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the per-file ok lines")
	events := flag.Bool("events", false, "validate job-event NDJSON (GET /jobs/{id}/events) instead of trace JSONL")
	fleetEvents := flag.Bool("fleet", false, "validate fleet frontend event NDJSON instead of trace JSONL")
	flag.Parse()
	if *events && *fleetEvents {
		fmt.Fprintln(os.Stderr, "tracelint: -events and -fleet are mutually exclusive")
		os.Exit(2)
	}

	if flag.NArg() == 0 {
		if code := lint("<stdin>", os.Stdin, *quiet, *events, *fleetEvents); code != 0 {
			os.Exit(code)
		}
		return
	}
	status := 0
	for _, name := range flag.Args() {
		if name == "-" {
			if code := lint("<stdin>", os.Stdin, *quiet, *events, *fleetEvents); code > status {
				status = code
			}
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracelint:", err)
			os.Exit(2)
		}
		if code := lint(name, f, *quiet, *events, *fleetEvents); code > status {
			status = code
		}
		f.Close()
	}
	os.Exit(status)
}

func lint(name string, r io.Reader, quiet, events, fleetEvents bool) int {
	validate := trace.Validate
	switch {
	case events:
		validate = server.ValidateEvents
	case fleetEvents:
		validate = fleet.ValidateEvents
	}
	n, err := validate(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %s: %v\n", name, err)
		return 1
	}
	if !quiet {
		fmt.Printf("%s: %d events ok\n", name, n)
	}
	return 0
}
