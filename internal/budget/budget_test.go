package budget

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"predabs/internal/trace"
)

func TestNilTrackerIsUnlimited(t *testing.T) {
	var bt *Tracker
	if bt.Cancelled() {
		t.Fatal("nil tracker reports cancelled")
	}
	if bt.Limits() != (Limits{}) {
		t.Fatal("nil tracker has limits")
	}
	if bt.Context() == nil {
		t.Fatal("nil tracker returns nil context")
	}
	bt.Degrade("prover", LimitQueryTimeout, "x") // must not panic
	if len(bt.Events()) != 0 {
		t.Fatal("nil tracker recorded a degradation")
	}
	if _, ok := bt.First(); ok {
		t.Fatal("nil tracker has a first event")
	}
}

func TestDegradeDedup(t *testing.T) {
	bt := New(context.Background(), Limits{CubeBudget: 5}, nil)
	bt.Degrade("abstract", LimitCubeBudget, "proc main")
	bt.Degrade("abstract", LimitCubeBudget, "proc other")
	bt.Degrade("prover", LimitQueryTimeout, "q1")
	bt.Degrade("abstract", LimitCubeBudget, "proc third")

	evs := bt.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d event classes, want 2: %+v", len(evs), evs)
	}
	if evs[0].Stage != "abstract" || evs[0].Limit != LimitCubeBudget ||
		evs[0].Count != 3 || evs[0].Detail != "proc main" {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if evs[1].Stage != "prover" || evs[1].Count != 1 {
		t.Fatalf("bad second event: %+v", evs[1])
	}
	first, ok := bt.First()
	if !ok || first.Stage != "abstract" {
		t.Fatalf("First = %+v, %v", first, ok)
	}
}

func TestDegradeEmitsTraceOncePerPair(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.Config{JSONL: &buf})
	bt := New(context.Background(), Limits{}, tr)
	bt.Degrade("bebop", LimitBDDNodes, "nodes=100000")
	bt.Degrade("bebop", LimitBDDNodes, "nodes=100001")
	n := strings.Count(buf.String(), `"cat":"degrade"`)
	if n != 1 {
		t.Fatalf("degrade trace events = %d, want 1\n%s", n, buf.String())
	}
	if _, err := trace.Validate(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("degrade event fails schema validation: %v", err)
	}
}

func TestCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	bt := New(ctx, Limits{RunTimeout: time.Second}, nil)
	if bt.Cancelled() {
		t.Fatal("cancelled before cancel")
	}
	cancel()
	if !bt.Cancelled() {
		t.Fatal("not cancelled after cancel")
	}
	if bt.Context().Err() == nil {
		t.Fatal("no error after cancel")
	}
	if bt.Limits().RunTimeout != time.Second {
		t.Fatal("limits not carried")
	}
}
