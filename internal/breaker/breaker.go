// Package breaker implements the circuit breaker the fleet frontend
// uses to gate dispatch to each backend (internal/fleet): trip open
// after N consecutive failures, refuse everything for a jittered
// reopen delay, then admit exactly one half-open probe whose outcome
// decides between closing and re-opening.
package breaker

import (
	"math/rand"
	"sync"
	"time"
)

// Breaker states, exposed by Snapshot and the callers' /statz payloads
// and breaker-state gauges (0 closed, 1 half-open, 2 open).
const (
	Closed   = "closed"
	HalfOpen = "half-open"
	Open     = "open"
)

// Breaker is one dependency's circuit breaker. It trips open after
// `threshold` consecutive failures; while open every Allow() is refused
// until a jittered reopen delay elapses, after which exactly one caller
// is admitted as the half-open probe. A probe success closes the
// breaker, a probe failure re-opens it for another jittered delay. The
// jitter (±50% around the configured reopen delay) decorrelates a
// fleet of clients hammering the same recovering dependency.
//
// All methods are safe for concurrent use.
type Breaker struct {
	threshold int
	reopen    time.Duration
	now       func() time.Time // test seam; time.Now outside tests

	mu       sync.Mutex
	state    string
	fails    int       // consecutive failures while closed
	until    time.Time // open: when the half-open probe unlocks
	probing  bool      // half-open: the single probe slot is taken
	tripped  int64     // cumulative close->open transitions
	reopened int64     // cumulative open->closed recoveries
}

// New returns a closed breaker that trips after threshold consecutive
// failures and offers its half-open probe a jittered reopen delay
// later.
func New(threshold int, reopen time.Duration) *Breaker {
	return &Breaker{
		threshold: threshold,
		reopen:    reopen,
		now:       time.Now,
		state:     Closed,
	}
}

// Allow reports whether a request may be sent. In the half-open state
// only the first caller gets true (the probe); everyone else is
// refused until the probe resolves via Success or Fail.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Before(b.until) {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a request that reached the dependency and got a sane
// response. It resets the failure streak and closes a half-open
// breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.reopened++
	}
	b.state = Closed
	b.fails = 0
	b.probing = false
}

// Fail records a request the dependency never served (connection
// refused, timeout, transport error). The breaker trips on the
// threshold'th consecutive failure, and a failed half-open probe
// re-opens immediately.
func (b *Breaker) Fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.trip()
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	}
}

// trip opens the breaker for a jittered reopen delay. Caller holds mu.
func (b *Breaker) trip() {
	b.state = Open
	b.probing = false
	b.fails = 0
	b.tripped++
	// ±50% jitter around the configured delay, same shape as the
	// predabsd supervisor's retry backoff.
	d := b.reopen/2 + time.Duration(rand.Int63n(int64(b.reopen)))
	b.until = b.now().Add(d)
}

// Snapshot returns the current state name and transition counters.
func (b *Breaker) Snapshot() (state string, tripped, reopened int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.tripped, b.reopened
}
