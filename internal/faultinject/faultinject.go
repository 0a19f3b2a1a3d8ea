// Package faultinject injects deterministic, seed-driven faults into a
// theorem prover's queries, through the prover's own fault seam
// (prover.Prover.Fault): simulated query timeouts, spurious "cannot
// prove" failures, forced unknowns, latency spikes, and (for
// stage-recovery testing) panics.
//
// Every fault decision is a pure function of (seed, fault kind, query
// kind, formula text), so a fault schedule replays identically across
// processes, goroutine schedules and worker counts — the property that
// makes the chaos matrix debuggable: a failing seed is a reproducible
// test case, not a flake.
//
// The injected faults respect the prover soundness contract (see
// prover.Querier): a fault only ever forces the conservative "could not
// prove" answer, never a positive claim. The pipeline treats that answer
// by weakening the abstraction, so ANY fault schedule must leave the
// boolean program a sound over-approximation — which is exactly what the
// chaos tests check against the internal/soundness oracle.
package faultinject

import (
	"context"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"predabs/internal/prover"
)

// Fault kinds, as reported by Injected.
const (
	// KindTimeout simulates a per-query deadline: the query is abandoned
	// with "could not prove".
	KindTimeout = "timeout"
	// KindUnknown simulates an incomplete decision procedure giving up.
	KindUnknown = "unknown"
	// KindFailure simulates a transient prover failure (crash of an
	// external prover process, I/O error) surfaced as "could not prove".
	KindFailure = "failure"
	// KindLatency injects a delay, then answers normally: the fault that
	// flushes out goroutine-coordination bugs rather than logic bugs.
	KindLatency = "latency"
	// KindPanic crashes the query outright; only the SLAM stage-boundary
	// recovery may observe it. Keep Config.PanicRate zero except in tests
	// that exercise that recovery.
	KindPanic = "panic"
)

// Config sets the per-query fault probabilities (each in [0, 1]) and the
// schedule seed. The rates are independent: timeout is decided first,
// then unknown, then failure, then panic; latency composes with a normal
// answer.
type Config struct {
	Seed        int64
	TimeoutRate float64
	UnknownRate float64
	FailureRate float64
	LatencyRate float64
	// Latency is the injected delay for latency faults (default 50µs:
	// enough to reorder goroutines, cheap enough for big matrices).
	Latency   time.Duration
	PanicRate float64
	// Ctx, when set, bounds latency injection: a cancelled run must not
	// sit out the remaining sleep (a cancellation test at a high latency
	// rate would otherwise serialize on dead queries). Nil means sleeps
	// run to completion.
	Ctx context.Context
}

// Prover is a prover.Prover whose queries fault on the schedule cfg
// describes: New installs the schedule as the prover's Fault, which
// every Valid, Unsat and Domain check (Prover.ask) and every
// Session.Check consults before it counts, looks up or traces the
// query. It stands in anywhere a prover is accepted
// (slam.Config.Prover, abstract.Abstract, the soundness oracle), and its
// statistics are the prover's own.
type Prover struct {
	*prover.Prover
	cfg Config

	injTimeout atomic.Int64
	injUnknown atomic.Int64
	injFailure atomic.Int64
	injLatency atomic.Int64
	injPanic   atomic.Int64
}

// New installs the fault schedule cfg describes on p.
func New(p *prover.Prover, cfg Config) *Prover {
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Microsecond
	}
	fp := &Prover{Prover: p, cfg: cfg}
	p.Fault = fp.fault
	return fp
}

// fault rolls the deterministic dice for one query of the given kind
// ("valid", "unsat", "session") and cache key; reports whether the answer
// must degrade to "could not prove". The dice read the key without its
// "V\x00" / "U\x00" tag, after the kind: a Valid(hyp, goal) query, or a
// Domain check of a cube whose conjunction is hyp, rolls on
// "valid\x00"+hyp+"\x00"+goal.
func (p *Prover) fault(kind string, key []byte) bool {
	key = key[2:]
	if p.roll(KindPanic, kind, key, p.cfg.PanicRate) {
		p.injPanic.Add(1)
		panic("faultinject: injected prover crash")
	}
	if p.roll(KindLatency, kind, key, p.cfg.LatencyRate) {
		p.injLatency.Add(1)
		p.sleep()
	}
	switch {
	case p.roll(KindTimeout, kind, key, p.cfg.TimeoutRate):
		p.injTimeout.Add(1)
	case p.roll(KindUnknown, kind, key, p.cfg.UnknownRate):
		p.injUnknown.Add(1)
	case p.roll(KindFailure, kind, key, p.cfg.FailureRate):
		p.injFailure.Add(1)
	default:
		return false
	}
	return true
}

// sleep injects one latency spike, cut short when the schedule's
// context is cancelled.
func (p *Prover) sleep() {
	if p.cfg.Ctx == nil {
		time.Sleep(p.cfg.Latency)
		return
	}
	t := time.NewTimer(p.cfg.Latency)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.cfg.Ctx.Done():
	}
}

// roll hashes (seed, fault kind, query kind, query key) into [0, 1) and
// fires when the result falls under rate.
func (p *Prover) roll(fault, kind string, key []byte, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	var seed [8]byte
	s := uint64(p.cfg.Seed)
	for i := 0; i < 8; i++ {
		seed[i] = byte(s >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(fault))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(key)
	return float64(h.Sum64())/math.MaxUint64 < rate
}
