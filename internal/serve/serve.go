// Package serve implements gbserve's core: a hardened, multi-tenant
// simulation service that accepts guest programs and experiment specs
// over HTTP/JSON and runs them on a bounded worker fleet built on the
// experiment harness.
//
// The service treats every submitted guest image as adversarial input.
// The robustness stack underneath it is the point of the package:
//
//   - Admission control and quotas (admission.go): per-tenant caps on
//     in-flight jobs and cumulative simulated-cycle and guest-memory
//     budgets. Cycle budgets are enforced through the machine's own
//     MaxCycles hook — a job is admitted with an allowance carved out
//     of its tenant's remaining budget and is killed by the simulator
//     itself if it tries to exceed it, so a tenant can never consume
//     more cycles than it was granted. A full queue sheds load with
//     429 + Retry-After instead of accepting unbounded work.
//
//   - Job lifecycle (worker.go): every job kind runs as a
//     harness.Runner matrix (a run job is a one-cell matrix), giving
//     per-job deadlines, cancellation that tears the machine down
//     through the Interrupt hook (guest memory is recycled via
//     Machine.Release on every path), transient-fault retries with the
//     harness's capped exponential backoff under what is left of the
//     cell's cycle budget, and a panic-isolation boundary per job —
//     one poisoned request returns a structured error while the fleet
//     keeps serving.
//
//   - Degradation paths: generated kernels and translated code are
//     shared across tenants through harness.Artifacts and the
//     persistent translation cache (keyed by image hash, so tenants
//     running the same image warm each other up); a corrupt cache
//     degrades to cold translation, never to an error.
//
//   - Lifecycle (drain): Shutdown stops admitting (readyz flips to
//     503), lets in-flight and queued jobs finish within the drain
//     grace, then cancels stragglers through their contexts, and only
//     returns when every worker has exited — no goroutine leaks, which
//     the soak test pins down under -race.
//
//   - Observability (metrics.go): /metrics renders the server counters
//     and the fleet-wide aggregate of every run's stable-name metrics
//     snapshot (obs.Snapshot) in Prometheus text format; /healthz and
//     /readyz separate liveness from admission readiness.
package serve

import (
	"context"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/tcache"
)

// Config parameterises a Server. The zero value is usable: default
// machine config, GOMAXPROCS workers, a 64-deep queue, permissive
// default quotas and no persistence.
type Config struct {
	// Base is the machine configuration every job starts from. The
	// zero value means dbt.DefaultConfig(). Per-job knobs (mitigation
	// mode, MaxCycles allowance, fault injection, Interrupt) are
	// layered on top per request.
	Base *dbt.Config

	// Workers is the job-fleet size (concurrently executing jobs).
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// JobParallelism bounds the harness worker pool inside one sweep
	// job (a fig4 sweep fans its matrix out over this many workers).
	// <= 0 means 2.
	JobParallelism int

	// QueueDepth bounds the global admission queue; a submit that finds
	// it full is shed with 429 + Retry-After. <= 0 means 64.
	QueueDepth int

	// DefaultQuota applies to tenants not listed in Tenants. Zero
	// fields fall back to the package defaults (see Quota).
	DefaultQuota Quota

	// Tenants maps tenant names to their quotas.
	Tenants map[string]Quota

	// JobTimeout is the default and maximum per-job wall-clock
	// deadline; requests may ask for less, never more. <= 0 means 60s.
	JobTimeout time.Duration

	// DrainTimeout is how long Shutdown waits for in-flight and queued
	// jobs before cancelling them. <= 0 means 10s.
	DrainTimeout time.Duration

	// Retries and Backoff configure the transient-fault retry policy
	// applied to jobs that run with fault injection (see
	// harness.Runner). Retries <= 0 disables retrying unless the
	// request asks for its own.
	Retries int
	Backoff harness.Backoff

	// TransCache, when non-nil, is shared by every job of every tenant:
	// the cache key includes the image hash, inputs, mode and machine
	// configuration, so cross-tenant sharing is safe by construction
	// and a corrupt document degrades to a cold translation.
	TransCache *tcache.Cache

	// Spans, when non-nil, receives the fleet's host-time span tree
	// (job / admission / queue-wait / attempt / backoff / cell spans,
	// plus drain). nil still gets a sinkless tracer internally: spans
	// are always timed so latency histograms and the per-job
	// /v1/jobs/{id}/trace stream work without a span file configured.
	Spans *hspan.Tracer

	// Log receives service events (job lifecycle, drain progress).
	// nil discards them.
	Log *log.Logger
}

// Server is the simulation service. Create with New, expose Handler()
// over HTTP, stop with Shutdown.
type Server struct {
	cfg     Config
	base    dbt.Config
	arts    *harness.Artifacts
	log     *log.Logger
	timeout time.Duration
	workers int

	rootCtx    context.Context
	rootCancel context.CancelFunc

	// spans is never nil: Config.Spans or a sinkless fallback tracer,
	// so span timing, histograms and /trace work unconditionally.
	spans  *hspan.Tracer
	reqSeq atomic.Uint64 // request-log correlation IDs

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	tenants  map[string]*tenantState
	nextID   uint64
	queue    chan *Job
	queued   int // jobs sitting in the queue (gauge)
	running  int // jobs currently executing (gauge)

	wg sync.WaitGroup // worker fleet

	metrics serverMetrics

	// testHookBeforeRun, when set, runs inside the worker's panic
	// boundary just before a job executes — tests use it to prove the
	// isolation boundary holds.
	testHookBeforeRun func(j *Job)
}

// New validates the configuration and starts the worker fleet. The
// server is accepting as soon as New returns.
func New(cfg Config) (*Server, error) {
	base := dbt.DefaultConfig()
	if cfg.Base != nil {
		base = *cfg.Base
	}
	if base.MemSize == 0 {
		return nil, fmt.Errorf("serve: base config has MemSize 0")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.JobParallelism <= 0 {
		cfg.JobParallelism = 2
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	timeout := cfg.JobTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	spans := cfg.Spans
	if spans == nil {
		spans = hspan.New(nil)
	}
	s := &Server{
		cfg:        cfg,
		base:       base,
		arts:       harness.NewArtifacts(),
		log:        logger,
		timeout:    timeout,
		workers:    workers,
		rootCtx:    ctx,
		rootCancel: cancel,
		spans:      spans,
		jobs:       make(map[string]*Job),
		tenants:    make(map[string]*tenantState),
		queue:      make(chan *Job, depth),
	}
	s.metrics.init()
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.log.Printf("serve: fleet up: %d workers, queue depth %d", workers, depth)
	return s, nil
}

// Snapshot returns the fleet-wide aggregate of every completed run's
// metrics snapshot (the stable-name observability contract).
func (s *Server) Snapshot() obs.Snapshot {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	out := make(obs.Snapshot, len(s.metrics.sim))
	out.Add(s.metrics.sim)
	return out
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the service: admission stops immediately (submits
// and readyz return 503), in-flight and queued jobs get the drain
// grace to finish, stragglers are cancelled through their contexts,
// and the call returns once every worker has exited. Shutdown is
// idempotent; ctx bounds the wait on top of the configured
// DrainTimeout.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	if !already {
		s.draining = true
		close(s.queue) // admission is gated on draining; no sends can race this
	}
	inFlight := s.queued + s.running
	s.mu.Unlock()
	var drainSpan hspan.Span
	if !already {
		drainSpan = s.spans.Start("drain", hspan.Int("in_flight", int64(inFlight)))
		s.log.Printf("serve: draining: %d jobs in flight, grace %v", inFlight, s.cfg.DrainTimeout)
	}
	defer drainSpan.End()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	grace := time.NewTimer(s.cfg.DrainTimeout)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.log.Printf("serve: drain grace expired, cancelling in-flight jobs")
		s.rootCancel()
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown: %w", ctx.Err())
		}
	case <-ctx.Done():
		s.rootCancel()
		<-done
	}
	s.rootCancel() // release the root context either way
	s.log.Printf("serve: drained")
	return nil
}
