package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed int64
	// window is how long the timed passes run; the last pass always
	// completes, so every subject runs equally often.
	window time.Duration
	// traced alternates untraced and traced passes: the untraced ones
	// give the tracing overhead and the subject split, the traced ones
	// every per-layer metric.
	traced bool
	// Set-up repeats at least setups times and for at least setupWindow;
	// setup_s is the median.
	setups      int
	setupWindow time.Duration
}

// A drivers-cegar set-up lasts a tenth of a second, much of it the first
// page faults and heap growth of a young process, so it needs more
// samples for a steady median than a set-up that lasts a second.
const (
	defaultSetups      = 5
	defaultSetupWindow = 3 * time.Second
)

// procs pins the scheduler to the two cores of the machine the bounds in
// BENCHMARK.json were measured on, or fewer where the machine has fewer.
const procs = 2

// runRecord is one timed run: its wall time and the process's CPU time
// (user + system, every thread) over it.
type runRecord struct {
	subject   int
	wall, cpu time.Duration
}

// passCost is what a group of passes (untraced or traced) consumed.
type passCost struct {
	runs   []runRecord
	wall   time.Duration
	alloc  uint64
	gcRuns uint32
}

// measurement is everything one invocation observed.
type measurement struct {
	workload  string
	subjects  []string
	setups    []time.Duration
	untraced  passCost
	traced    passCost
	samples   []layerSample
	maxRSSKB  int64
	passes    int
	attempted int
	failed    int
	failures  []string
	spans     *spanRecorder
}

func (m *measurement) correct() bool { return len(m.failures) == 0 }

// measure sets the workload up, then runs whole passes until the window
// has elapsed, gating every run's output.
func measure(w workload, cfg config) (*measurement, error) {
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	m := &measurement{workload: w.name, spans: newSpanRecorder()}
	g := &gate{}
	var subs []subject
	for first := time.Now(); len(m.setups) < cfg.setups || time.Since(first) < cfg.setupWindow; {
		start := time.Now()
		var err error
		if subs, err = w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// One untimed warm-up pass, so the timed passes start warm.
		for j, s := range subs {
			out, err := s.run(nil)
			if msg := g.check(j, s, out, err); msg != "" {
				m.failures = append(m.failures, "warm-up: "+msg)
			}
		}
		m.setups = append(m.setups, time.Since(start))
	}
	for _, s := range subs {
		m.subjects = append(m.subjects, s.name)
	}

	runtime.GC()
	next := passOrders(cfg.seed, len(subs))
	windowStart := time.Now()
	for pass := 0; ; pass++ {
		traced := cfg.traced && pass%2 == 1
		cost := &m.untraced
		if traced {
			cost = &m.traced
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		passStart := time.Now()
		for _, i := range next() {
			s := subs[i]
			var p *probe
			root := -1
			if traced {
				p = newProbe(m.spans)
				root = m.spans.begin("run", map[string]any{"subject": s.name, "pass": pass})
			}
			cpu0, t0 := cpuTime(), time.Now()
			out, err := s.run(p)
			wall, cpu := time.Since(t0), cpuTime()-cpu0
			if traced {
				m.spans.end(root)
				m.samples = append(m.samples, p.finish(wall, root))
			}
			m.attempted++
			if msg := g.check(i, s, out, err); msg != "" {
				m.failed++
				m.failures = append(m.failures, fmt.Sprintf("pass %d: %s", pass, msg))
			}
			cost.runs = append(cost.runs, runRecord{subject: i, wall: wall, cpu: cpu})
		}
		cost.wall += time.Since(passStart)
		runtime.ReadMemStats(&ms1)
		cost.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		cost.gcRuns += ms1.NumGC - ms0.NumGC
		m.passes = pass + 1
		if time.Since(windowStart) >= cfg.window && (!cfg.traced || traced) {
			break
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.maxRSSKB = int64(ru.Maxrss)
	}
	return m, nil
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gate checks each run's output against the corpus facts and against the
// subject's first run: every run of a subject, traced or not, must return
// the same output digest, prover query count and iteration count.
type gate struct {
	refs map[int]reference
}

type reference struct {
	digest              [32]byte
	queries, iterations int
}

// check returns "" for a correct run, or what was wrong with it.
func (g *gate) check(i int, s subject, out output, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", s.name, err)
	}
	if out.verdict != s.want {
		return fmt.Sprintf("%s: verdict %s, want %s", s.name, out.verdict, s.want)
	}
	if s.sessions && out.sessionChecks == 0 {
		return fmt.Sprintf("%s: no prover session checks (models engine fell back to cubes)", s.name)
	}
	got := reference{digest: out.digest(), queries: out.queries, iterations: out.iterations}
	if g.refs == nil {
		g.refs = map[int]reference{}
	}
	ref, seen := g.refs[i]
	if !seen {
		g.refs[i] = got
		return ""
	}
	switch {
	case got.digest != ref.digest:
		return fmt.Sprintf("%s: output differs from its first run", s.name)
	case got.queries != ref.queries:
		return fmt.Sprintf("%s: %d prover queries, first run made %d", s.name, got.queries, ref.queries)
	case got.iterations != ref.iterations:
		return fmt.Sprintf("%s: %d iterations, first run took %d", s.name, got.iterations, ref.iterations)
	}
	return ""
}
