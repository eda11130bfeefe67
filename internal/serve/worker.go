package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// worker is one fleet goroutine: it drains the admission queue until
// Shutdown closes it. Every job runs inside the panic-isolation
// boundary of execute, so a poisoned request ends one job, never a
// worker.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob moves a job queued→running→terminal and keeps the ledgers
// straight on every path.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	s.queued--
	if j.ctx.Err() != nil {
		s.mu.Unlock()
		j.queueSpan.End(hspan.Str("outcome", "canceled"))
		s.finish(j, 0, nil, &APIError{Code: CodeCanceled, Message: "job canceled before it started"})
		return
	}
	j.state = StateRunning
	s.running++
	s.mu.Unlock()
	waitNS := s.spans.Now() - j.queueSpan.StartNS()
	j.queueSpan.End()
	s.metrics.observeQueueWait(j.Tenant, waitNS)

	res, spent, aerr := s.execute(j)
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	s.finish(j, spent, res, aerr)
}

// finish records a job's terminal state, settles its tenant ledger and
// releases its context. Results are "flushed" here: the terminal state
// is logged and visible to status polls the instant the lock drops.
func (s *Server) finish(j *Job, spent uint64, res *JobResult, aerr *APIError) {
	s.mu.Lock()
	switch {
	case aerr == nil:
		j.state = StateDone
		j.result = res
		if len(res.Metrics) > 0 {
			s.metrics.addRun(res.Metrics)
		}
	case aerr.Code == CodeCanceled:
		j.state = StateCanceled
		j.apiErr = aerr
	default:
		j.state = StateFailed
		j.apiErr = aerr
	}
	t := s.tenant(j.Tenant)
	t.inFlight--
	if t.quota.CycleBudget > 0 {
		if spent > j.cycleAllowance && j.cycleAllowance > 0 {
			spent = j.cycleAllowance
		}
		t.cyclesReserved -= j.cycleAllowance
		t.cyclesUsed += spent
	}
	if res != nil {
		t.detectAlarms += uint64(res.DetectAlarms)
	}
	s.metrics.complete(j.state)
	// The terminal event lands under the same lock that sets the
	// terminal state, so a drained event stream is a complete one.
	s.appendEventLocked(j, JobEvent{Type: EventJobFinished, State: j.state})
	state := j.state
	s.mu.Unlock()
	// The root span ends outside s.mu (its observer wakes /trace
	// readers under the job's span lock); its record marks the job's
	// trace complete, so it must land after every child span has.
	wallNS := s.spans.Now() - j.root.StartNS()
	j.root.End(hspan.Str("state", state), hspan.Int("cycles_charged", int64(spent)))
	s.metrics.observeJobWall(j.Tenant, wallNS)
	j.cancel() // release the job context's resources on every path
	close(j.done)
	if aerr != nil {
		s.log.Printf("serve: %s %s: %s (%d cycles charged)", j.ID, state, aerr.Error(), spent)
	} else {
		s.log.Printf("serve: %s %s (%d cycles charged)", j.ID, state, spent)
	}
}

// execute runs one job inside the panic-isolation boundary and returns
// its result, the simulated cycles it consumed, and its failure.
func (s *Server) execute(j *Job) (res *JobResult, spent uint64, aerr *APIError) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panic()
			res = nil
			spent = j.cycleAllowance // mid-run state unknown: charge conservatively
			aerr = &APIError{Code: CodePanic, Message: fmt.Sprintf("job panicked (isolated): %v", r)}
			s.log.Printf("serve: %s PANIC isolated: %v", j.ID, r)
		}
	}()
	if s.testHookBeforeRun != nil {
		s.testHookBeforeRun(j)
	}
	ctx, cancel := context.WithTimeout(j.ctx, s.jobTimeout(&j.Req))
	defer cancel()
	return s.executeMatrix(ctx, j)
}

// retryBudget resolves a job's transient-fault retry count.
func (s *Server) retryBudget(j *Job) int {
	if j.Req.Retries > 0 {
		return j.Req.Retries
	}
	return s.cfg.Retries
}

// executeMatrix runs a job on a harness Runner that shares the
// server-wide artifact and translation caches. A run job is a
// one-bench, one-mode matrix over its assembled program; kernel and
// fig4 jobs are sweeps. The cycle allowance is split evenly across the
// matrix cells and enforced per cell through MaxCycles; the Runner
// runs each retry under what the cell's earlier attempts left and
// meters every attempt, so the job is charged the cycles that ran.
func (s *Server) executeMatrix(ctx context.Context, j *Job) (*JobResult, uint64, *APIError) {
	cfg := s.base
	cfg.TransCache = s.cfg.TransCache
	var benches []harness.Bench
	var prog *programRun
	switch j.Req.Kind {
	case KindRun:
		p, err := riscv.Assemble(j.Req.Program)
		if err != nil {
			return nil, 0, &APIError{Code: CodeInvalid, Message: fmt.Sprintf("assembly failed: %v", err)}
		}
		prog = &programRun{prog: p}
		benches = []harness.Bench{prog.bench()}
	case KindKernel:
		k, err := polybench.ByName(j.Req.Kernel)
		if err != nil {
			return nil, 0, &APIError{Code: CodeInvalid, Message: err.Error()}
		}
		benches = []harness.Bench{harness.KernelBench(k, j.Req.N)}
	case KindFig4:
		benches = harness.Fig4Benches(j.Req.N)
	}
	if j.cycleAllowance > 0 {
		per := j.cycleAllowance / uint64(j.cells)
		if per == 0 {
			per = 1 // allowance smaller than the matrix: every cell traps immediately
		}
		cfg.MaxCycles = per
	}
	if spec := j.Req.Inject; spec != nil {
		// The Runner reseeds the injector per retry (Seed + attempt).
		cfg.FaultInject = &dbt.FaultInject{
			Seed:                   spec.Seed,
			TranslationFailureRate: spec.TranslationRate,
			CacheFaultRate:         spec.CacheRate,
			SpuriousInterruptRate:  spec.InterruptRate,
		}
	}

	var alarms atomic.Int64
	if j.Req.Detect {
		var keep func(*detect.Report)
		if prog != nil {
			keep = func(rep *detect.Report) { prog.det = rep }
		}
		for i := range benches {
			benches[i] = s.detectBench(j, benches[i], &alarms, keep)
		}
	}
	runner := &harness.Runner{
		Workers:   s.cfg.JobParallelism,
		Artifacts: s.arts,
		Retries:   s.retryBudget(j),
		Backoff:   s.cfg.Backoff,
		Span:      j.root, // per-cell spans land in the job's trace
		OnCell: func(u harness.CellUpdate) {
			ev := JobEvent{Type: EventCellStarted, Bench: u.Bench, Mode: u.Mode.String(),
				Index: u.Index, Total: u.Total}
			if u.Done {
				ev.Type = EventCellFinished
				if u.Run != nil {
					ev.Cycles = u.Run.Cycles
					s.metrics.observeCellHost(j.Tenant, u.Mode.String(), u.Run.HostNS)
				}
				if u.Err != nil {
					ev.Error = u.Err.Error()
				}
			}
			s.appendEvent(j, ev)
		},
	}
	rows, err := runner.RunMatrix(ctx, cfg, benches, j.modes)
	spent := sweepCycles(rows, j.modes)
	if err != nil {
		if f := trap.As(err); f != nil {
			return nil, spent, trapError(f)
		}
		if ctx.Err() != nil || errors.Is(err, dbt.ErrInterrupted) {
			return nil, spent, s.ctxError(ctx)
		}
		return nil, spent, &APIError{Code: CodeHostError, Message: err.Error()}
	}
	if prog != nil {
		return prog.result(), spent, nil
	}

	res := &JobResult{
		Table:   renderTable(j.Req.Kind, rows, j.modes),
		Cells:   len(rows) * len(j.modes),
		Metrics: obs.Snapshot{},
	}
	for _, r := range rows {
		for _, m := range j.modes {
			if c, ok := r.Cycles[m]; ok {
				res.Metrics.Add(r.Stats[m].Snapshot(c))
			}
		}
	}
	if j.Req.Detect {
		res.DetectAlarms = int(alarms.Load())
		res.Metrics["detect.alarms"] = uint64(res.DetectAlarms)
	}
	return res, spent, nil
}

// programRun is a run job's single bench: every attempt runs the
// assembled guest on a fresh machine, and the result (plus, with
// detection, the verdict) of the attempt that succeeded is kept for
// the job result.
type programRun struct {
	prog *riscv.Program
	res  *dbt.Result
	det  *detect.Report
}

func (p *programRun) bench() harness.Bench {
	return harness.Bench{
		Name: "program",
		Run: func(_ context.Context, cfg dbt.Config, _ *harness.Artifacts) (*harness.KernelRun, error) {
			m, err := dbt.New(cfg)
			if err != nil {
				return nil, err
			}
			defer m.Release()
			if err := m.Load(p.prog); err != nil {
				return nil, err
			}
			res, err := m.Run()
			run := &harness.KernelRun{Name: "program", Mode: cfg.Mitigation, Cycles: m.Cycles(),
				TransNS: m.TranslateHostNS()}
			if err != nil {
				return run, err // trapped and interrupted attempts are metered too
			}
			run.Stats = res.Stats
			p.res = res
			return run, nil
		},
	}
}

// result renders the successful attempt as the run job's result.
func (p *programRun) result() *JobResult {
	out := &JobResult{
		ExitCode: int(p.res.Exit.Code),
		Cycles:   p.res.Cycles,
		Instret:  p.res.Instret,
		Metrics:  p.res.Snapshot(),
	}
	if p.det != nil {
		out.Detect = p.det
		p.det.AddMetrics(out.Metrics)
		if p.det.Alarm {
			out.DetectAlarms = 1
		}
	}
	return out
}

// detectBench wraps one bench with detect.Observe: each attempt of its
// cells runs with a private online detector teed into the machine's
// event stream, and a failed attempt still hands the Runner its
// partial run to meter. An alarm of a successful attempt increments
// the job's count and lands on the event stream; keep, when non-nil,
// receives that attempt's verdict (run jobs only: their one cell never
// runs concurrently). The cell's guest-visible results are untouched
// (the tracer rides the observability plane — cycle counts are pinned
// identical by the harness differential tests).
func (s *Server) detectBench(j *Job, b harness.Bench, alarms *atomic.Int64, keep func(*detect.Report)) harness.Bench {
	return detect.Observe(b, detect.Config{}, func(cfg dbt.Config, rep *detect.Report) {
		if keep != nil {
			keep(rep)
		}
		if rep.Alarm {
			alarms.Add(1)
			s.appendEvent(j, JobEvent{Type: EventDetectAlarm, Bench: b.Name,
				Mode: cfg.Mitigation.String(), Alarm: true,
				Confidence: rep.Confidence, AlarmCycle: rep.AlarmCycle})
		}
	})
}

// sweepCycles totals the simulated cycles every cell consumed, failed
// and interrupted attempts included (harness.Row.Spent).
func sweepCycles(rows []*harness.Row, modes []core.Mode) uint64 {
	var total uint64
	for _, r := range rows {
		for _, m := range modes {
			total += r.Spent[m]
		}
	}
	return total
}

// renderTable renders a sweep result byte-identically to the gbbench
// stdout for the same experiment — the contract the serve smoke test
// diffs against a local run.
func renderTable(kind string, rows []*harness.Row, modes []core.Mode) string {
	table := harness.FormatRows(rows, modes)
	if kind == KindFig4 {
		return "Figure 4 — slowdown vs. unsafe execution (lower is better)\n" +
			"columns: unsafe baseline cycles; then % of unsafe time per countermeasure\n" +
			"\n" + table
	}
	return table
}

// trapError maps a structured guest trap onto the wire.
func trapError(f *trap.Fault) *APIError {
	return &APIError{
		Code:     CodeGuestTrap,
		Message:  f.Error(),
		TrapKind: f.Kind.String(),
		GuestPC:  f.PC,
		Cycle:    f.Cycle,
	}
}

// ctxError distinguishes a deadline kill from a cancellation.
func (s *Server) ctxError(ctx context.Context) *APIError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &APIError{Code: CodeDeadline, Message: "job deadline exceeded; machine interrupted and released"}
	}
	return &APIError{Code: CodeCanceled, Message: "job canceled; machine interrupted and released"}
}
