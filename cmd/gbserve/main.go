// Command gbserve runs the simulation service: a long-running daemon
// that accepts guest programs and experiment specs over HTTP/JSON and
// executes them on a bounded worker fleet with per-tenant quotas.
//
//	gbserve [-addr :8433] [-workers N] [-job-parallelism N] [-queue N]
//	        [-job-timeout 60s] [-drain-timeout 10s]
//	        [-quota-inflight N] [-quota-cycles N] [-quota-mem N]
//	        [-tenant name=inflight:cycles:mem ...]
//	        [-retries N] [-retry-backoff d] [-retry-backoff-max d]
//	        [-retry-seed N] [-tcache] [-tcache-dir dir] [-width 2|4|8]
//	        [-spans file] [-pprof 127.0.0.1:6060]
//
// API (see internal/serve):
//
//	POST   /v1/jobs             submit a job ({"tenant": ..., "kind":
//	                            "run"|"kernel"|"fig4", ...}); ?wait=1
//	                            blocks until the job is terminal
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/output rendered output (byte-identical to the
//	                            gbbench/gbrun stdout for the same work)
//	GET    /v1/jobs/{id}/events live NDJSON progress stream
//	GET    /v1/jobs/{id}/trace  the job's host-span tree (span/v1 NDJSON)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz /readyz /metrics
//
// Admission rejections are structured: 429 + Retry-After when the
// tenant's in-flight cap or the global queue is hit, 403 when a cycle
// or memory budget is exhausted, 503 while draining.
//
// SIGINT/SIGTERM starts a graceful drain: admission stops (readyz goes
// 503 for load balancers), running and queued jobs get -drain-timeout
// to finish, stragglers are cancelled through their contexts (the
// machine's interrupt hook, so guest memory is released), and the
// process exits 0 once the fleet is idle. A second signal kills the
// process immediately.
//
// -spans streams every job's host-side span tree (admission, queue
// wait, attempts with translate/execute splits, the final drain) to a
// ghostbusters/span/v1 JSONL file. Latency histograms (queue wait, job
// wall time, per-cell host time) are always collected and exposed on
// /metrics in Prometheus histogram exposition, spans file or not.
//
// Flag errors exit 2 (see internal/cli): a -width other than 2, 4 or 8
// and a negative -retries, -retry-backoff or -retry-backoff-max are
// rejected up front. Startup failures exit 1; the -tcache summary is
// logged on every exit.
//
// -pprof serves net/http/pprof on a second, loopback-only listener.
// The profiling surface is never mounted on the public API mux, and
// gbserve refuses to start if the address does not resolve to a
// loopback interface.
//
// All logging goes to stderr; stdout is never written (ops can pipe it
// safely).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	httppprof "net/http/pprof"

	"ghostbusters/internal/cli"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/serve"
)

func main() {
	t := cli.New("gbserve")
	logger := t.Log
	logger.SetFlags(log.LstdFlags)
	addr := flag.String("addr", ":8433", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "job-fleet size (concurrently executing jobs)")
	jobPar := flag.Int("job-parallelism", 2, "harness workers inside one sweep job")
	queue := flag.Int("queue", 64, "admission queue depth (full queue sheds 429 + Retry-After)")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "default and maximum per-job deadline")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace for in-flight jobs on SIGTERM before cancellation")
	quotaInflight := flag.Int("quota-inflight", 8, "default per-tenant cap on queued+running jobs (-1 = unlimited)")
	quotaCycles := flag.Uint64("quota-cycles", 0, "default per-tenant cumulative simulated-cycle budget (0 = unlimited)")
	quotaMem := flag.Uint64("quota-mem", 0, "default per-tenant cumulative guest-memory budget in bytes (0 = unlimited)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); never mounted on the public API")
	t.WidthFlag()
	t.RetryFlags(10 * time.Millisecond)
	t.TCacheFlags()
	t.SpanFlags()

	tenants := map[string]serve.Quota{}
	flag.Func("tenant", "per-tenant quota `name=inflight:cycles:mem` (repeatable; 0 = unlimited, inflight -1 = unlimited)", func(v string) error {
		name, q, err := parseTenant(v)
		if err != nil {
			return err
		}
		tenants[name] = q
		return nil
	})
	t.Parse()
	if flag.NArg() != 0 {
		t.UsageError("usage: gbserve [flags]")
	}

	// The fleet's host-side span timeline (admission decisions, queue
	// waits, attempts and drain, one job tree per admitted job) has no
	// root: Close flushes it after the drain, so the drain span itself
	// is captured.
	base := dbt.DefaultConfig()
	ctx := t.Start(&base, "")

	// pprof lives on its own loopback-only listener: the profiling
	// surface (heap contents, CPU samples, symbol tables) must never be
	// reachable through the public API address.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		t.Fail(err)
		if tcpAddr, ok := pln.Addr().(*net.TCPAddr); !ok || !tcpAddr.IP.IsLoopback() {
			t.Fail(fmt.Errorf("pprof: %s is not a loopback address; refusing to expose profiles", pln.Addr()))
		}
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", httppprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go func() {
			if err := http.Serve(pln, pprofMux); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Printf("gbserve: pprof: %v", err)
			}
		}()
		logger.Printf("gbserve: pprof on http://%s/debug/pprof/ (loopback only)", pln.Addr())
	}

	s, err := serve.New(serve.Config{
		Base:           &base,
		Workers:        *workers,
		JobParallelism: *jobPar,
		QueueDepth:     *queue,
		DefaultQuota: serve.Quota{
			MaxInFlight: *quotaInflight,
			CycleBudget: *quotaCycles,
			MemBudget:   *quotaMem,
		},
		Tenants:      tenants,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
		Retries:      t.Retries,
		Backoff:      t.Backoff,
		TransCache:   t.TransCache(),
		Spans:        t.Spans(),
		Log:          logger,
	})
	t.Fail(err)

	ln, err := net.Listen("tcp", *addr)
	t.Fail(err)
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("gbserve: listening on %s", ln.Addr())

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		t.Fail(err)
	}
	t.StopSignals() // a second signal now kills the process the default way
	logger.Printf("gbserve: signal received, draining (grace %v)", *drainTimeout)

	// Drain the fleet first — the HTTP server stays up so status polls
	// and metrics scrapes keep working while jobs finish — then close
	// the listener.
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+30*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		logger.Printf("gbserve: drain: %v", err)
	}
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("gbserve: http shutdown: %v", err)
	}
	t.Close()
	logger.Printf("gbserve: bye")
}

// parseTenant parses one -tenant spec: name=inflight:cycles:mem.
func parseTenant(v string) (string, serve.Quota, error) {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return "", serve.Quota{}, fmt.Errorf("want name=inflight:cycles:mem, got %q", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return "", serve.Quota{}, fmt.Errorf("want name=inflight:cycles:mem, got %q", v)
	}
	inflight, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", serve.Quota{}, fmt.Errorf("bad inflight in %q: %v", v, err)
	}
	cycles, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return "", serve.Quota{}, fmt.Errorf("bad cycle budget in %q: %v", v, err)
	}
	mem, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", serve.Quota{}, fmt.Errorf("bad mem budget in %q: %v", v, err)
	}
	return name, serve.Quota{MaxInFlight: inflight, CycleBudget: cycles, MemBudget: mem}, nil
}
