// Command predabsd is the SLAM verification daemon: it accepts
// verification jobs (program + specification + limits) over HTTP/JSON,
// admits them through a bounded queue with load shedding, and runs each
// in an isolated re-exec'd worker subprocess supervised with a hard
// deadline, SIGKILL on overrun, and checkpoint-resumed retries — so a
// crashing or wedged job can never take the service down or corrupt a
// sibling, and a daemon restart resumes every journaled in-flight job.
//
// Usage:
//
//	predabsd -data /var/lib/predabs [-addr :8745] [-workers 4]
//	curl -d '{"source":"...","spec":"...","entry":"main"}' http://localhost:8745/jobs
//	curl http://localhost:8745/jobs/job-000001
//
// With -frontend the same binary runs as the fleet router instead: it
// owns no workers, speaks the identical HTTP API, and dispatches each
// deduplicated job across the listed backend predabsd nodes with
// circuit breakers, lease-based failover and a durable ledger of its
// own (see internal/fleet):
//
//	predabsd -frontend http://n1:8745,http://n2:8745 -data /var/lib/predabs-fe
//
// The same binary re-execs itself as the worker (-worker -dir, internal).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"predabs"
	"predabs/internal/fleet"
	"predabs/internal/metrics"
	"predabs/internal/server"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "predabsd: internal error: %v\n", p)
			code = 1
		}
	}()
	worker := flag.Bool("worker", false, "run as a job worker subprocess (internal)")
	dir := flag.String("dir", "", "job directory (with -worker)")
	addr := flag.String("addr", "127.0.0.1:8745", "HTTP listen address")
	data := flag.String("data", "", "data directory for the job ledger and per-job state (required)")
	queueCap := flag.Int("queue", 64, "admission queue capacity; submissions beyond it are shed with 503")
	workers := flag.Int("workers", 2, "concurrent worker subprocesses")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "hard per-attempt wall clock; overrunning workers are SIGKILLed and retried")
	retries := flag.Int("retries", 2, "retry budget per job (attempts = retries+1, counted across restarts)")
	retryBase := flag.Duration("retry-base", 250*time.Millisecond, "base retry backoff (exponential, ±50% jitter)")
	retryMax := flag.Duration("retry-max", 10*time.Second, "retry backoff ceiling")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "shutdown grace for running attempts before they are SIGKILLed")
	artifacts := flag.Bool("artifacts", true, "write per-job trace.jsonl and report.json artifacts")
	allowJobEnv := flag.Bool("allow-job-env", false, "honour job env injection (chaos testing only)")
	verbose := flag.Bool("v", false, "log job lifecycle events to stderr")
	frontend := flag.String("frontend", "", "run as the fleet frontend, routing to these comma-separated backend base URLs")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "with -frontend: heartbeat lease before a backend is declared dead")
	pollInterval := flag.Duration("poll-interval", 500*time.Millisecond, "with -frontend: backend event-stream poll spacing")
	dispatchRetries := flag.Int("dispatch-retries", 4, "with -frontend: backend attempts per run before failing it unknown")
	eventWait := flag.Duration("event-wait", 0, "with -frontend: long-poll hold per backend event fetch (0 = min(lease-ttl/3, 5s), negative disables)")
	ledgerSnapshotBytes := flag.Int64("ledger-snapshot-bytes", 0, "fold terminal jobs into a snapshot record at restart replay once the ledger exceeds this size (0 = never fold)")
	eventsMaxBytes := flag.Int64("events-max-bytes", 0, "rotate each job's event log behind a truncation record above this size (0 = unbounded)")
	flag.Parse()

	if *worker {
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "predabsd: -worker requires -dir")
			return 2
		}
		return server.RunWorker(*dir, os.Stderr)
	}
	if flag.NArg() != 0 || *data == "" {
		fmt.Fprintln(os.Stderr, "usage: predabsd -data <dir> [-addr host:port] [-frontend url,url]")
		return 2
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *frontend != "" {
		if *dispatchRetries <= 0 || *leaseTTL <= 0 || *pollInterval <= 0 || *queueCap <= 0 {
			fmt.Fprintln(os.Stderr, "predabsd: -dispatch-retries, -lease-ttl, -poll-interval and -queue must be positive")
			return 2
		}
		fmt.Fprintf(os.Stderr, "predabsd: version %s starting (frontend)\n", predabs.Version)
		fe, err := fleet.New(fleet.Config{
			DataDir:             *data,
			Backends:            strings.Split(*frontend, ","),
			QueueCap:            *queueCap,
			DispatchRetries:     *dispatchRetries,
			LeaseTTL:            *leaseTTL,
			PollInterval:        *pollInterval,
			EventWait:           *eventWait,
			AllowJobEnv:         *allowJobEnv,
			LedgerSnapshotBytes: *ledgerSnapshotBytes,
			Metrics:             metrics.New(),
			Logf:                logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "predabsd:", err)
			return 1
		}
		return serveAPI(fe.Handler(), *addr, *drainTimeout, func(context.Context) error {
			fe.Shutdown()
			return nil
		})
	}
	for name, v := range map[string]int{"queue": *queueCap, "workers": *workers} {
		if v <= 0 {
			fmt.Fprintf(os.Stderr, "predabsd: flag -%s: %d: must be positive\n", name, v)
			return 2
		}
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "predabsd: flag -retries: %d: must not be negative\n", *retries)
		return 2
	}
	for name, d := range map[string]time.Duration{
		"job-timeout": *jobTimeout, "retry-base": *retryBase,
		"retry-max": *retryMax, "drain-timeout": *drainTimeout,
	} {
		if d <= 0 {
			fmt.Fprintf(os.Stderr, "predabsd: flag -%s: %v: must be positive\n", name, d)
			return 2
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "predabsd:", err)
		return 1
	}
	// Version at startup: the one log line every incident review wants,
	// and the same value /healthz and /statz report while running.
	fmt.Fprintf(os.Stderr, "predabsd: version %s starting\n", predabs.Version)
	srv, err := server.New(server.Config{
		DataDir:             *data,
		WorkerBin:           self,
		QueueCap:            *queueCap,
		Workers:             *workers,
		AttemptTimeout:      *jobTimeout,
		Retries:             *retries,
		RetryBase:           *retryBase,
		RetryMax:            *retryMax,
		Artifacts:           *artifacts,
		AllowJobEnv:         *allowJobEnv,
		LedgerSnapshotBytes: *ledgerSnapshotBytes,
		EventsMaxBytes:      *eventsMaxBytes,
		Metrics:             metrics.New(),
		Logf:                logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "predabsd:", err)
		return 1
	}
	srv.Start()
	return serveAPI(srv.Handler(), *addr, *drainTimeout, srv.Shutdown)
}

// serveAPI listens, prints the readiness line, serves h, and drains on
// SIGINT/SIGTERM — shared by the single-node daemon and the fleet
// frontend.
func serveAPI(h http.Handler, addr string, drainTimeout time.Duration, shutdown func(context.Context) error) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predabsd:", err)
		shutdown(context.Background())
		return 1
	}
	// The resolved address line is the readiness signal for scripts and
	// the chaos harness (with -addr :0 the port is kernel-assigned).
	fmt.Printf("predabsd: listening on http://%s\n", ln.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "predabsd: received %v, draining\n", got)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "predabsd:", err)
		shutdown(context.Background())
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "predabsd: drain timed out; interrupted attempts were refunded and their jobs stay journaled for resume (%v)\n", err)
	}
	return 0
}
