package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/cast"
	"predabs/internal/cnorm"
	"predabs/internal/corpus"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
	"predabs/internal/slam"
)

// A workload is one set of inputs: its subjects, each run once per pass.
// Every run gets a fresh prover, as one slam, c2bp or bebop invocation
// does, and the loop is closed with one client.
type workload struct {
	name string
	// setup builds the subjects. It is part of the timed set-up.
	setup func() ([]subject, error)
}

var workloads = []workload{
	// The paper's headline workflow, spread over every layer. Jobs=1
	// keeps the cube-search worker pool out of it.
	{"drivers-cegar", func() ([]subject, error) { return driverSubjects(abstract.EngineCubes), nil }},
	// The same runs on the prover's incremental sessions, so a prover
	// change that helps one-shot queries but hurts sessions shows.
	{"drivers-models", func() ([]subject, error) { return driverSubjects(abstract.EngineModels), nil }},
	// Prover-bound cube search: the only workload on the parallel pool
	// and the sharded prover cache under concurrency.
	{"table2-c2bp", func() ([]subject, error) { return table2Subjects(), nil }},
	// Bebop alone: a prover change should leave it unmoved.
	{"bebop-check", bebopSubjects},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// A subject is one corpus program run through one workload's entry points.
type subject struct {
	name string
	// want is the verdict the corpus's hand-written facts demand; it
	// never comes from the tool under test.
	want string
	// sessions demands that every run use incremental prover sessions:
	// a models-engine run without them silently fell back to cubes.
	sessions bool
	run      func(p *probe) (output, error)
}

// output is what the correctness gate compares between runs of a subject.
type output struct {
	verdict string
	// prog is the boolean program the run produced or checked; its
	// printed text goes into the digest.
	prog *bp.Program
	// extra is further output text for the digest (error traces).
	extra         string
	queries       int // prover calls + session checks
	sessionChecks int
	iterations    int // CEGAR iterations, or Bebop worklist iterations
}

// digest hashes the run's output. It runs after the clock stops.
func (o output) digest() [sha256.Size]byte {
	return sha256.Sum256([]byte(o.verdict + "\n" + bp.Print(o.prog) + "\n" + o.extra))
}

const (
	verified   = "verified"
	errorFound = "error-found"
)

// wantFor is the verdict the corpus facts give a driver: the floppy
// driver carries a seeded IRP error, the others are correct.
func wantFor(p corpus.Program) string {
	if p.ExpectError {
		return errorFound
	}
	return verified
}

// driverSubjects runs each Table 1 driver through the full CEGAR loop,
// exactly as cmd/slam does: slam.VerifySpec with the prover left to the
// library (Config.Prover == nil) unless a traced run supplies its timed
// wrapper.
func driverSubjects(engine string) []subject {
	var subs []subject
	for _, d := range corpus.Drivers() {
		d := d
		subs = append(subs, subject{name: d.Name, want: wantFor(d), sessions: engine == abstract.EngineModels,
			run: func(p *probe) (output, error) { return verifyDriver(d, engine, p) }})
	}
	return subs
}

func verifyDriver(d corpus.Program, engine string, p *probe) (output, error) {
	cfg := slam.DefaultConfig()
	cfg.Opts.Jobs = 1
	cfg.Opts.Engine = engine
	if p != nil {
		cfg.Tracer = p.tr
		cfg.Prover = p.q
	}
	var res *slam.Result
	start := time.Now()
	err := p.call("slam.VerifySpec", func() (err error) {
		res, err = slam.VerifySpec(d.Source, d.Spec, d.Entry, cfg)
		return err
	})
	wall := time.Since(start)
	if err != nil {
		return output{}, err
	}
	if p != nil {
		s := &p.sample
		s.abstract, s.bebop, s.newton = res.AbstractTime, res.CheckTime, res.NewtonTime
		s.frontend = wall - res.AbstractTime - res.CheckTime - res.NewtonTime
		s.slamIters, s.preds = res.Iterations, res.PredCount
	}
	return output{
		verdict:       res.Outcome.String(),
		prog:          res.FinalBP,
		extra:         strings.Join(res.ErrorTrace, "\n"),
		queries:       res.ProverCalls + res.SessionChecks,
		sessionChecks: res.SessionChecks,
		iterations:    res.Iterations,
	}, nil
}

// table2Subjects runs each Table 2 program down the c2bp + bebop command
// path with the paper's predicate file: frontend, abstraction on a
// two-worker cube-search pool, then Bebop on the result.
func table2Subjects() []subject {
	var subs []subject
	for _, t := range corpus.Table2() {
		t := t
		// Every assert in these programs is provable with the given
		// predicates.
		subs = append(subs, subject{name: t.Name, want: verified, run: func(p *probe) (output, error) {
			abs, pv, err := abstractTable2(t, p)
			if err != nil {
				return output{}, err
			}
			var ch *bebop.Checker
			if err := p.call("bebop.Check", func() (err error) {
				ch, err = bebop.CheckTraced(abs.BP, t.Entry, p.tracer())
				return err
			}); err != nil {
				return output{}, err
			}
			return output{
				verdict:       verdictOf(ch),
				prog:          abs.BP,
				queries:       pv.Calls() + pv.SessionChecks(),
				sessionChecks: pv.SessionChecks(),
				iterations:    ch.Iterations,
			}, nil
		}})
	}
	return subs
}

// table2Jobs is the cube-search pool width on table2-c2bp: the VM's two
// cores, matching GOMAXPROCS.
const table2Jobs = 2

// abstractTable2 is c2bp on one Table 2 program. It returns the
// abstraction and the prover whose counters it used.
func abstractTable2(t corpus.Program, p *probe) (*abstract.Result, *prover.Prover, error) {
	var prog *cast.Program
	var info *ctype.Info
	var norm *cnorm.Result
	var aa *alias.Analysis
	var secs []cparse.PredSection
	var abs *abstract.Result
	q, pv := p.prover()
	opts := abstract.DefaultOptions()
	opts.Jobs = table2Jobs
	opts.Tracer = p.tracer()
	steps := []struct {
		name string
		fn   func() error
	}{
		{"cparse.Parse", func() (err error) { prog, err = cparse.Parse(t.Source); return err }},
		{"ctype.Check", func() (err error) { info, err = ctype.Check(prog); return err }},
		{"cnorm.Normalize", func() (err error) { norm, err = cnorm.Normalize(info); return err }},
		{"alias.AnalyzeOpts", func() error {
			aa = alias.AnalyzeOpts(norm, alias.Options{OpenCallers: !t.GhostAliasing})
			return nil
		}},
		{"cparse.ParsePredFile", func() (err error) { secs, err = cparse.ParsePredFile(t.Preds); return err }},
		{"abstract.Abstract", func() (err error) { abs, err = abstract.Abstract(norm, aa, q, secs, opts); return err }},
	}
	for _, st := range steps {
		if err := p.call(st.name, st.fn); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", t.Name, st.name, err)
		}
	}
	return abs, pv, nil
}

func verdictOf(ch *bebop.Checker) string {
	if _, bad := ch.ErrorReachable(); bad {
		return errorFound
	}
	return verified
}

// bebopSubjects generates the ten boolean programs bebop-check runs: the
// five Table 2 abstractions and the final-iteration program of each
// driver's CEGAR run. Generation is part of the set-up.
func bebopSubjects() ([]subject, error) {
	var subs []subject
	for _, t := range corpus.Table2() {
		abs, _, err := abstractTable2(t, nil)
		if err != nil {
			return nil, err
		}
		subs = append(subs, bebopSubject(t.Name, bp.Print(abs.BP), t.Entry, verified))
	}
	for _, d := range corpus.Drivers() {
		out, err := verifyDriver(d, abstract.EngineCubes, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		// Only the floppy driver's final program reaches its error.
		subs = append(subs, bebopSubject(d.Name, bp.Print(out.prog), d.Entry, wantFor(d)))
	}
	return subs, nil
}

func bebopSubject(name, text, entry, want string) subject {
	return subject{name: name, want: want, run: func(p *probe) (output, error) {
		var prog *bp.Program
		var ch *bebop.Checker
		if err := p.call("bp.Parse", func() (err error) { prog, err = bp.Parse(text); return err }); err != nil {
			return output{}, err
		}
		if err := p.call("bebop.Check", func() (err error) {
			ch, err = bebop.CheckTraced(prog, entry, p.tracer())
			return err
		}); err != nil {
			return output{}, err
		}
		return output{
			verdict:    verdictOf(ch),
			prog:       prog,
			extra:      fmt.Sprint(ch.Failures),
			iterations: ch.Iterations,
		}, nil
	}}
}
