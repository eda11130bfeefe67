package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"ghostbusters/internal/core"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
)

// Job kinds: an arbitrary guest program, a single-kernel sweep, or the
// full Figure 4 matrix.
const (
	KindRun    = "run"
	KindKernel = "kernel"
	KindFig4   = "fig4"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// API error codes. Admission rejections (queue_full, too_many_jobs,
// *_exhausted) never create a job; execution failures (guest_trap,
// deadline, panic, ...) are recorded on the job they killed.
const (
	CodeInvalid        = "invalid_request"
	CodeQueueFull      = "queue_full"
	CodeTooManyJobs    = "too_many_jobs"
	CodeCycleExhausted = "cycle_budget_exhausted"
	CodeMemExhausted   = "mem_budget_exhausted"
	CodeDraining       = "draining"
	CodeGuestTrap      = "guest_trap"
	CodeDeadline       = "deadline_exceeded"
	CodeCanceled       = "canceled"
	CodePanic          = "panic"
	CodeHostError      = "host_error"
	CodeNotFound       = "not_found"
)

// APIError is the structured error body every failure path returns —
// machine-readable code first, human detail second.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSec is set on load-shedding rejections (the header
	// carries the same value).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// Trap detail, when the failure was a structured guest trap.
	TrapKind string `json:"trap_kind,omitempty"`
	GuestPC  uint64 `json:"guest_pc,omitempty"`
	Cycle    uint64 `json:"cycle,omitempty"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// InjectSpec enables deterministic fault injection for a job (chaos
// engineering over the wire; rates in [0, 1]).
type InjectSpec struct {
	Seed            uint64  `json:"seed"`
	TranslationRate float64 `json:"translation_rate,omitempty"`
	CacheRate       float64 `json:"cache_rate,omitempty"`
	InterruptRate   float64 `json:"interrupt_rate,omitempty"`
}

// JobRequest is the submit body.
type JobRequest struct {
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`

	// KindRun: the guest program (assembly source) and its mitigation
	// mode (default unsafe).
	Program string `json:"program,omitempty"`
	Mode    string `json:"mode,omitempty"`

	// KindKernel: the polybench kernel name. N overrides the problem
	// size for kernel and fig4 jobs (0 = default).
	Kernel string `json:"kernel,omitempty"`
	N      int    `json:"n,omitempty"`

	// Modes lists the mitigation sweep for kernel/fig4 jobs; empty
	// means the paper's Figure 4 set.
	Modes []string `json:"modes,omitempty"`

	// MaxCycles asks for a per-run simulated-cycle cap below the
	// tenant's allowance (0 = allowance only).
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// TimeoutMS asks for a deadline shorter than the server's job
	// timeout (0 = server default; larger values are clamped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Inject turns on deterministic fault injection; Retries gives the
	// job that many transient-fault retries (capped exponential
	// backoff, per the server policy).
	Inject  *InjectSpec `json:"inject,omitempty"`
	Retries int         `json:"retries,omitempty"`

	// Detect attaches the online attack-phase detector to every cell:
	// run jobs return the full verdict in result.detect, sweep jobs
	// count alarmed cells in result.detect_alarms, and every alarm is
	// a detect_alarm row on the job's event stream. Guest-visible
	// behaviour (cycles, results) is unchanged; detection rides the
	// observability plane.
	Detect bool `json:"detect,omitempty"`
}

// JobResult is the success payload.
type JobResult struct {
	// KindRun fields.
	ExitCode int    `json:"exit_code,omitempty"`
	Cycles   uint64 `json:"cycles,omitempty"`
	Instret  uint64 `json:"instret,omitempty"`

	// Sweep fields: the rendered table (byte-identical to the gbbench
	// stdout for the same experiment) and the number of matrix cells.
	Table string `json:"table,omitempty"`
	Cells int    `json:"cells,omitempty"`

	// Metrics is the run's stable-name snapshot (summed across cells
	// for sweeps).
	Metrics obs.Snapshot `json:"metrics,omitempty"`

	// Detect is the run job's full detector verdict; DetectAlarms
	// counts cells whose detector fired (1 at most for run jobs, up
	// to Cells for sweeps). Both only present when the request asked
	// for detection.
	Detect       *detect.Report `json:"detect,omitempty"`
	DetectAlarms int            `json:"detect_alarms,omitempty"`
}

// JobStatus is the wire view of a job.
type JobStatus struct {
	ID     string     `json:"id"`
	Tenant string     `json:"tenant"`
	Kind   string     `json:"kind"`
	State  string     `json:"state"`
	Error  *APIError  `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// Job is one admitted unit of work. Mutable fields are guarded by the
// server mutex; the context is cancelled by DELETE, deadline expiry or
// server drain.
type Job struct {
	ID     string
	Tenant string
	Req    JobRequest

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	// Admission grants, released/settled when the job finishes.
	cycleAllowance uint64 // total simulated-cycle grant (0 = unlimited)
	memCharge      uint64 // guest-memory bytes charged at admission
	cells          int    // matrix cells this job runs (1 for KindRun)
	modes          []core.Mode

	state  string
	result *JobResult
	apiErr *APIError

	// events is the append-only progress buffer handleEvents streams;
	// wake is closed and replaced on every append (broadcast). Both
	// are guarded by the server mutex.
	events []JobEvent
	wake   chan struct{}

	// Host-span state. root is the job's span (started at admission,
	// ended in finish); queueSpan covers admission→dequeue. The buffer
	// below feeds GET /v1/jobs/{id}/trace the way events feeds the
	// events stream, but under its own leaf lock: spans are emitted
	// from paths that already hold s.mu (admission) and from harness
	// worker goroutines, so they must not take the server mutex.
	// Lock order: s.mu → spanMu, never the reverse.
	root      hspan.Span
	rootID    uint64
	queueSpan hspan.Span

	spanMu    sync.Mutex
	spans     []hspan.Record
	spanWake  chan struct{}
	spansDone bool // the root record has landed: the trace is complete
}

// maxJobSpans bounds the per-job span buffer; like maxJobEvents, the
// cap only matters for adversarial workloads, and the root record is
// always kept so /trace streams still terminate.
const maxJobSpans = 4096

// appendSpan is the job's span observer (wired via hspan.Tracer.Fork
// at admission): it buffers the record and wakes every /trace reader.
func (j *Job) appendSpan(r hspan.Record) {
	j.spanMu.Lock()
	if len(j.spans) < maxJobSpans || r.ID == j.rootID {
		j.spans = append(j.spans, r)
	}
	if r.ID == j.rootID {
		j.spansDone = true
	}
	close(j.spanWake)
	j.spanWake = make(chan struct{})
	j.spanMu.Unlock()
}

// Status renders the wire view (caller holds the server mutex or owns
// the job exclusively).
func (j *Job) status() JobStatus {
	return JobStatus{
		ID: j.ID, Tenant: j.Tenant, Kind: j.Req.Kind,
		State: j.state, Error: j.apiErr, Result: j.result,
	}
}

// validate normalises and checks a request at admission time, resolving
// the mode list. Invalid requests are rejected before they consume any
// quota.
func (r *JobRequest) validate() ([]core.Mode, *APIError) {
	if r.Tenant == "" {
		return nil, &APIError{Code: CodeInvalid, Message: "tenant is required"}
	}
	if r.N < 0 {
		return nil, &APIError{Code: CodeInvalid, Message: "n must be >= 0"}
	}
	if r.Retries < 0 || r.Retries > 16 {
		return nil, &APIError{Code: CodeInvalid, Message: "retries must be in [0, 16]"}
	}
	if r.TimeoutMS < 0 {
		return nil, &APIError{Code: CodeInvalid, Message: "timeout_ms must be >= 0"}
	}
	if r.Inject != nil {
		for _, rate := range []float64{r.Inject.TranslationRate, r.Inject.CacheRate, r.Inject.InterruptRate} {
			if rate < 0 || rate > 1 {
				return nil, &APIError{Code: CodeInvalid, Message: "inject rates must be in [0, 1]"}
			}
		}
	}
	switch r.Kind {
	case KindRun:
		if strings.TrimSpace(r.Program) == "" {
			return nil, &APIError{Code: CodeInvalid, Message: "run job needs a program"}
		}
		if len(r.Program) > 1<<20 {
			return nil, &APIError{Code: CodeInvalid, Message: "program exceeds 1 MiB"}
		}
		mode := r.Mode
		if mode == "" {
			mode = core.ModeUnsafe.String()
		}
		m, err := core.ParseMode(mode)
		if err != nil {
			return nil, &APIError{Code: CodeInvalid, Message: err.Error()}
		}
		return []core.Mode{m}, nil
	case KindKernel:
		if r.Kernel == "" {
			return nil, &APIError{Code: CodeInvalid, Message: "kernel job needs a kernel name"}
		}
		return parseModeList(r.Modes)
	case KindFig4:
		return parseModeList(r.Modes)
	default:
		return nil, &APIError{Code: CodeInvalid, Message: fmt.Sprintf("unknown kind %q", r.Kind)}
	}
}

func parseModeList(names []string) ([]core.Mode, *APIError) {
	if len(names) == 0 {
		return harness.Fig4Modes, nil
	}
	modes, err := core.ParseModes(names)
	if err != nil {
		return nil, &APIError{Code: CodeInvalid, Message: err.Error()}
	}
	return modes, nil
}
