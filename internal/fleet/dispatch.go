package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"predabs/internal/server"
)

// dispatcher drains the run queue. Each run is driven to its terminal
// verdict by exactly one dispatcher — dedup's single-flight guarantee.
func (f *Frontend) dispatcher() {
	defer f.wg.Done()
	for {
		select {
		case <-f.quit:
			return
		case r := <-f.queue:
			f.drive(r)
		}
	}
}

// drive takes a run from admitted (or replayed) to its verdict:
// adoption of a surviving backend job when resuming, otherwise
// dispatch, then the heartbeat watch; every lease expiry journals and
// re-dispatches until the budget runs out.
func (f *Frontend) drive(r *run) {
	// Adoption: a restarted frontend replayed a dispatch (or adopt)
	// record with no verdict. If the backend still runs the job and its
	// spec hash matches our key, re-attach instead of re-running.
	r.mu.Lock()
	backend, bid := r.backend, r.backendID
	r.mu.Unlock()
	if backend != "" && bid != "" {
		if f.tryAdopt(r, backend, bid) {
			if done := f.watch(r, backend, bid); done {
				return
			}
			// watch interrupted by shutdown: leave the run journaled.
			if f.isQuitting() {
				return
			}
		} else if f.isQuitting() {
			return
		}
	}

	for {
		if f.isQuitting() {
			return
		}
		r.mu.Lock()
		dispatches := r.dispatches
		r.mu.Unlock()
		if dispatches >= f.cfg.DispatchRetries {
			f.finishRun(r, runFailed, 2, "unknown", "",
				fmt.Sprintf("fleet: dispatch budget exhausted after %d attempts", dispatches))
			return
		}
		node, bid := f.submitRun(r)
		if node == nil {
			if f.isQuitting() {
				return
			}
			// No backend available right now: jittered pause, then retry
			// without burning a dispatch attempt — an idle fleet is
			// backpressure, not failure.
			f.sleep(f.cfg.ReconnectBase + time.Duration(rand.Int63n(int64(f.cfg.ReconnectBase))))
			continue
		}
		if done := f.watch(r, node.url, bid); done {
			return
		}
		if f.isQuitting() {
			return
		}
	}
}

func (f *Frontend) isQuitting() bool {
	select {
	case <-f.quit:
		return true
	default:
		return false
	}
}

// sleep pauses, returning early on shutdown.
func (f *Frontend) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.quit:
	case <-t.C:
	}
}

// tryAdopt probes the backend job a replayed run points at. On a spec
// hash match it journals the adoption and reports true; anything else
// — 404, a recycled directory now running different work, a dead
// backend — journals the lease expiry and reports false, licensing a
// fresh dispatch.
func (f *Frontend) tryAdopt(r *run, backend, bid string) bool {
	reason := ""
	resp, err := f.cfg.Client.Get(backend + "/jobs/" + bid)
	switch {
	case err != nil:
		if n := f.reg.byURL(backend); n != nil {
			n.br.Fail()
		}
		f.met.errors.With(backend).Inc()
		reason = fmt.Sprintf("adopt probe: %v", err)
	case resp.StatusCode != http.StatusOK:
		resp.Body.Close()
		reason = fmt.Sprintf("adopt probe: backend returned %d", resp.StatusCode)
	default:
		var st server.JobStatus
		err := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			reason = fmt.Sprintf("adopt probe: %v", err)
		} else if st.SpecHash != r.key {
			// The backend's ledger was quarantined and the ID recycled
			// for different work: adopting would credit a stranger's
			// verdict to our job.
			reason = "adopt probe: spec hash mismatch (recycled backend job)"
		}
	}
	if reason != "" {
		f.expireLease(r, backend, bid, reason)
		return false
	}
	if _, err := f.led.Append(Record{Type: RecAdopt, Key: r.key, Backend: backend, BackendID: bid}); err != nil {
		f.cfg.Logf("fleet ledger: adopt append failed: %v", err)
		f.expireLease(r, backend, bid, "fleet ledger unwritable at adopt")
		return false
	}
	r.mu.Lock()
	r.state = runWatching
	r.mu.Unlock()
	f.met.adopted.Inc()
	f.cfg.Logf("fleet: adopted %s on %s as %s", r.key[:12], backend, bid)
	return true
}

// expireLease journals the lease expiry and detaches the run from its
// backend. This is the single failover commit point: after the record
// is durable the run may be re-dispatched, and a frontend killed
// before it restarts into the adoption probe instead.
func (f *Frontend) expireLease(r *run, backend, bid, reason string) {
	if _, err := f.led.Append(Record{Type: RecLease, Key: r.key, Lease: "expired",
		Backend: backend, BackendID: bid, Detail: reason}); err != nil {
		f.cfg.Logf("fleet ledger: lease append failed: %v", err)
	}
	r.mu.Lock()
	r.state = runPending
	r.backend, r.backendID = "", ""
	r.mu.Unlock()
	f.met.expired.Inc()
	f.met.leases.Dec()
	f.cfg.Logf("fleet: lease expired for %s on %s (%s)", r.key[:12], backend, reason)
}

// submitRun offers the run to the fleet: round-robin over available
// backends, honoring Retry-After suspensions and breakers, until one
// accepts. Returns the accepting node and its backend-local job ID,
// or (nil, "") when no backend is currently available.
func (f *Frontend) submitRun(r *run) (*node, string) {
	tried := map[string]bool{}
	for {
		n := f.reg.pick(tried)
		if n == nil {
			return nil, ""
		}
		tried[n.url] = true
		bid, ok := f.submitTo(n, r)
		if !ok {
			continue
		}
		// Journal the dispatch BEFORE believing in it: a frontend killed
		// right after this append re-adopts the backend job on restart —
		// the job is never run twice concurrently and never lost.
		r.mu.Lock()
		dispatch := r.dispatches + 1
		r.mu.Unlock()
		if _, err := f.led.Append(Record{Type: RecDispatch, Key: r.key,
			Backend: n.url, BackendID: bid, Dispatch: dispatch}); err != nil {
			f.cfg.Logf("fleet ledger: dispatch append failed: %v", err)
			return nil, ""
		}
		r.mu.Lock()
		r.dispatches = dispatch
		r.backend, r.backendID = n.url, bid
		r.state = runWatching
		r.mu.Unlock()
		f.met.dispatches.With(n.url).Inc()
		f.met.leases.Inc()
		f.cfg.Logf("fleet: dispatched %s to %s as %s (attempt %d)", r.key[:12], n.url, bid, dispatch)
		return n, bid
	}
}

// submitTo POSTs the run's spec to one backend. A 202 wins; a 503
// suspends the node for its Retry-After (the backend is healthy and
// shedding — satellite 1's contract); a transport error feeds the
// breaker.
func (f *Frontend) submitTo(n *node, r *run) (string, bool) {
	body, err := json.Marshal(r.spec)
	if err != nil {
		return "", false
	}
	resp, err := f.cfg.Client.Post(n.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		n.br.Fail()
		f.met.errors.With(n.url).Inc()
		f.updateNodeGauges(n)
		return "", false
	}
	defer resp.Body.Close()
	n.br.Success() // the backend answered; shedding is not a breaker failure
	f.updateNodeGauges(n)
	switch resp.StatusCode {
	case http.StatusAccepted:
		var out struct {
			ID string `json:"id"`
		}
		if json.NewDecoder(resp.Body).Decode(&out) != nil || out.ID == "" {
			return "", false
		}
		return out.ID, true
	case http.StatusServiceUnavailable:
		d := time.Second
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				d = time.Duration(secs) * time.Second
			}
		}
		n.suspend(d)
		f.met.backendShed.With(n.url).Inc()
		return "", false
	default:
		// 400 and friends: the backend refused the spec outright. Count
		// it against this node and move on; if every backend refuses,
		// the dispatch budget drains and the run fails unknown.
		f.met.errors.With(n.url).Inc()
		return "", false
	}
}

// watch consumes the backend's durable event stream as the run's
// heartbeat: every successful poll renews the lease, and poll failures
// back off exponentially with jitter (capped — satellite 1) while the
// lease drains. Returns true when the run reached a verdict (or the
// frontend recorded failure), false when the lease expired and the
// caller should re-dispatch.
func (f *Frontend) watch(r *run, backend, bid string) bool {
	n := f.reg.byURL(backend)
	l := newLease(f.cfg.LeaseTTL)
	var cursor uint64
	backoff := f.cfg.ReconnectBase
	for {
		if f.isQuitting() {
			return false
		}
		if l.expired() {
			f.expireLease(r, backend, bid, "heartbeat lease expired")
			return false
		}
		pollStart := time.Now()
		evs, status, err := f.pollEvents(backend, bid, cursor, f.cfg.EventWait)
		switch {
		case err != nil:
			if n != nil {
				n.br.Fail()
				f.updateNodeGauges(n)
			}
			f.met.errors.With(backend).Inc()
			// Jittered exponential reconnect backoff, capped so a
			// recovering backend is re-polled promptly.
			f.sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
			backoff *= 2
			if backoff > f.cfg.ReconnectMax {
				backoff = f.cfg.ReconnectMax
			}
			continue
		case status == http.StatusNotFound:
			// The backend restarted into a quarantined ledger and no
			// longer knows the job: its work is gone, re-dispatch.
			f.expireLease(r, backend, bid, "backend lost the job (404)")
			return false
		case status != http.StatusOK:
			// Corrupt event log (coded 500) or any other server-side
			// failure: the job's history cannot be trusted, re-dispatch.
			f.expireLease(r, backend, bid, fmt.Sprintf("backend event stream returned %d", status))
			return false
		}
		if n != nil {
			n.br.Success()
			f.updateNodeGauges(n)
		}
		l.renew()
		backoff = f.cfg.ReconnectBase
		terminal := ""
		for _, ev := range evs {
			if ev.Seq > cursor {
				cursor = ev.Seq
			}
			if ev.Type == server.EventState &&
				(ev.State == server.StateDone || ev.State == server.StateFailed) {
				terminal = ev.State
			}
		}
		if terminal != "" {
			if f.harvest(r, backend, bid) {
				return true
			}
			f.expireLease(r, backend, bid, "verdict fetch failed after terminal event")
			return false
		}
		// The long poll blocks server-side until news arrives, so the
		// watcher normally re-polls immediately. Pace only when the
		// backend answered early — events were already pending, or an
		// old backend ignored ?wait= (without this guard that would be
		// a busy loop).
		if f.cfg.EventWait <= 0 || time.Since(pollStart) < f.cfg.EventWait/2 {
			f.sleep(f.cfg.PollInterval)
		}
	}
}

// pollEvents fetches one page of the backend job's event stream,
// long-polling up to wait for news (satellite: push-style event
// subscriptions). Transport errors come back as err; HTTP-level
// outcomes as status.
func (f *Frontend) pollEvents(backend, bid string, after uint64, wait time.Duration) ([]server.JobEvent, int, error) {
	url := fmt.Sprintf("%s/jobs/%s/events?after=%d", backend, bid, after)
	if wait > 0 {
		url += "&wait=" + wait.String()
	}
	resp, err := f.cfg.Client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var evs []server.JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev server.JobEvent
		if json.Unmarshal(line, &ev) == nil {
			evs = append(evs, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return evs, http.StatusOK, nil
}

// harvest fetches the terminal backend job status and records the
// verdict. The spec hash gate makes adoption and dispatch symmetric:
// a verdict is credited to our run only if it hashes to our key. The
// backend journals its durable done record before flipping the status
// map, so a status read racing the terminal event may briefly lag —
// harvest re-polls a few times before giving up.
func (f *Frontend) harvest(r *run, backend, bid string) bool {
	for try := 0; try < 5; try++ {
		if try > 0 {
			f.sleep(f.cfg.PollInterval)
			if f.isQuitting() {
				return false
			}
		}
		resp, err := f.cfg.Client.Get(backend + "/jobs/" + bid)
		if err != nil {
			continue
		}
		var st server.JobStatus
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		ok := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if !ok || decErr != nil || st.SpecHash != r.key {
			continue
		}
		switch st.State {
		case server.StateDone:
			f.met.leases.Dec()
			f.finishRun(r, runDone, st.ExitCode, st.Outcome, st.Stdout, "")
			return true
		case server.StateFailed:
			// The backend exhausted ITS retry budget: outcome unknown
			// is a real (sound) verdict — deliver it to every job on
			// this run, then invalidate the dedup entry so the next
			// identical submit runs fresh (no cached-unknown poisoning).
			f.met.leases.Dec()
			f.finishRun(r, runFailed, st.ExitCode, st.Outcome, "", st.Error)
			return true
		}
	}
	return false
}

// updateNodeGauges refreshes the per-backend breaker and readiness
// gauges after a breaker transition opportunity.
func (f *Frontend) updateNodeGauges(n *node) {
	state, _, _ := n.br.Snapshot()
	f.met.breakerState.With(n.url).Set(breakerGaugeValue(state))
	if n.ready.Load() {
		f.met.backendReady.With(n.url).Set(1)
	} else {
		f.met.backendReady.With(n.url).Set(0)
	}
}
