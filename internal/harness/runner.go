package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/trap"
)

// Runner is the parallel experiment engine: it fans a (benchmark × mode)
// matrix out as independent jobs over a bounded worker pool. Every job
// runs on its own dbt.Machine, so no simulator state is shared and the
// per-job results are bit-identical to a sequential run — only the wall
// clock changes. The zero value is ready to use: GOMAXPROCS workers, no
// timeout, uncached artifacts. A failed cell never stops the others:
// the matrix runs to the end and returns every failure joined.
type Runner struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// Timeout is the wall-clock guard per job (0 = none). It complements
	// the guest-cycle budget in Config.MaxCycles: MaxCycles bounds the
	// simulated work, Timeout bounds host time. A job that exceeds it
	// fails with context.DeadlineExceeded (the machine aborts via the
	// Config.Interrupt hook).
	Timeout time.Duration

	// Artifacts, when non-nil, memoizes generated kernel sources and
	// assembled programs across jobs, so an N-mode sweep assembles each
	// kernel once instead of N times.
	Artifacts *Artifacts

	// Retries is how many extra attempts a job gets after failing with a
	// transient fault (one the fault-injection layer raised). Each retry
	// reseeds the injector (Seed + attempt) so the same deterministic
	// fault does not simply recur. Real guest faults are never retried:
	// they are deterministic properties of the guest, not bad luck.
	Retries int

	// Backoff paces the retries (see Backoff): capped exponential
	// pauses with deterministic jitter, each matrix cell keying the
	// jitter stream with its benchmark name and mode. The sleep is
	// context-aware: cancelling the matrix interrupts a backoff pause
	// immediately. The zero value retries back-to-back.
	Backoff Backoff

	// TolerateFaults keeps the matrix going when a job exhausts its
	// retries on a guest trap: instead of failing the whole matrix, the
	// cell is recorded in Row.Faults and rendered as "n/a". Host-side
	// errors (assembly, validation, timeouts) still fail the matrix.
	TolerateFaults bool

	// TransCache, when non-nil, is the persistent translation cache
	// every job's machine shares (dbt.Config.TransCache); the per-job
	// key separates images, inputs, modes and configurations, so the
	// fan-out stays bit-identical to uncached runs. A cache already set
	// on the base config is left alone.
	TransCache *tcache.Cache

	// OnCell, when non-nil, is called from the worker goroutines as
	// each matrix cell starts (Done == false) and finishes (Done ==
	// true, with the run or error). It must be safe for concurrent
	// use; the Runner guarantees nothing about ordering across cells,
	// only start-before-finish within one. Consumers: gbserve's
	// per-job event stream and detect.Eval's progress reporting.
	OnCell func(CellUpdate)

	// Span, when enabled, parents the host-time span tree the matrix
	// emits: one "cell" child per (bench, mode) with per-attempt and
	// backoff children and a translate/execute split from the
	// machine's own translation-latency accounting. The zero Span
	// disables all of it at 0 allocs per cell.
	Span hspan.Span
}

// CellUpdate is one progress notification from the matrix fan-out.
type CellUpdate struct {
	Bench string
	Mode  core.Mode
	// Index is the cell's position in deterministic job order
	// (bench-major); Total is the matrix size.
	Index int
	Total int
	// Done distinguishes the start notification (false) from the
	// finish one (true). Run and Err are only set on finish; Run is
	// nil when the cell failed.
	Done bool
	Run  *KernelRun
	Err  error
}

// Bench is one benchmark of the experiment matrix: a named job factory
// the Runner instantiates once per mitigation mode. Run must be safe to
// call concurrently (each call receives its own Config and must build
// its own machine). A Run that fails after its guest ran may return the
// KernelRun alongside the error, with Cycles set to what the machine
// consumed, so the Runner can meter the failed attempt (Row.Spent);
// otherwise the Runner falls back to the cycle stamp of a guest trap.
type Bench struct {
	Name string
	Run  func(ctx context.Context, cfg dbt.Config, arts *Artifacts) (*KernelRun, error)
}

// KernelBench wraps a polybench kernel (n = 0 means the kernel's
// DefaultN). The generated and assembled artifact is shared through the
// runner's artifact cache.
func KernelBench(k polybench.Kernel, n int) Bench {
	if n == 0 {
		n = k.DefaultN
	}
	return Bench{
		Name: k.Name,
		Run: func(_ context.Context, cfg dbt.Config, arts *Artifacts) (*KernelRun, error) {
			art, err := arts.Kernel(k, n, cfg)
			if err != nil {
				return nil, err
			}
			return runArtifact(art, cfg)
		},
	}
}

// SpectreBench wraps a Spectre proof-of-concept application as a
// benchmark. Its runs carry the attack's scoreboard (KernelRun.Leakage).
func SpectreBench(v attack.Variant, p attack.Params) Bench {
	return Bench{
		Name: v.String(),
		Run: func(_ context.Context, cfg dbt.Config, _ *Artifacts) (*KernelRun, error) {
			res, err := attack.Run(v, cfg, p)
			if err != nil {
				return nil, err
			}
			return &KernelRun{Name: v.String(), Mode: cfg.Mitigation, Cycles: res.Cycles,
				Stats: res.Stats, Leakage: res.Leakage}, nil
		},
	}
}

// Fig4Benches builds the full Figure 4 benchmark list: every Polybench
// kernel plus the two Spectre applications (with a fixed two-byte
// secret), in the paper's order.
func Fig4Benches(sizeOverride int) []Bench {
	var benches []Bench
	for _, k := range polybench.All() {
		benches = append(benches, KernelBench(k, sizeOverride))
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		benches = append(benches, SpectreBench(v, attack.Params{Secret: []byte{0x5A, 0xC3}}))
	}
	return benches
}

// Fig4 runs the whole Figure 4 matrix on the runner's worker pool.
func (r *Runner) Fig4(ctx context.Context, base dbt.Config, modes []core.Mode, sizeOverride int) ([]*Row, error) {
	return r.RunMatrix(ctx, base, Fig4Benches(sizeOverride), modes)
}

// RunKernel measures one kernel under the given modes, fanning the
// modes out over the pool.
func (r *Runner) RunKernel(ctx context.Context, k polybench.Kernel, n int, base dbt.Config, modes []core.Mode) (*Row, error) {
	rows, err := r.RunMatrix(ctx, base, []Bench{KernelBench(k, n)}, modes)
	if len(rows) > 0 {
		// Like RunMatrix, the partial row rides along with the error so
		// an interrupted sweep can still emit what completed.
		return rows[0], err
	}
	return nil, err
}

// RunMatrix fans benches × modes out as independent jobs and folds the
// completed runs into one Row per bench. Row order follows the benches
// argument regardless of completion order, so output is deterministic at
// any worker count.
//
// On failure the returned rows are non-nil and carry every cell that
// did complete (failed cells simply have no entry), so an interrupted
// sweep can still render or persist its partial results; the error
// reports what went wrong as before.
func (r *Runner) RunMatrix(ctx context.Context, base dbt.Config, benches []Bench, modes []core.Mode) ([]*Row, error) {
	nb, nm := len(benches), len(modes)
	if nb == 0 || nm == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Every machine's interrupt hook is its job's context, so a
	// caller's own base.Interrupt cancels the matrix instead.
	if intr := base.Interrupt; intr != nil {
		select {
		case <-intr:
			cancel()
		default:
			go func() {
				select {
				case <-intr:
					cancel()
				case <-ctx.Done():
				}
			}()
		}
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nb*nm {
		workers = nb * nm
	}

	type job struct{ bi, mi int }
	jobs := make(chan job)
	runs := make([]*KernelRun, nb*nm)
	spent := make([]uint64, nb*nm)
	errs := make([]error, nb*nm)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				idx := j.bi*nm + j.mi
				if ctx.Err() != nil {
					errs[idx] = fmt.Errorf("harness: %s (%s): skipped: %w",
						benches[j.bi].Name, modes[j.mi], ctx.Err())
					if r.OnCell != nil {
						r.OnCell(CellUpdate{Bench: benches[j.bi].Name, Mode: modes[j.mi],
							Index: idx, Total: nb * nm, Done: true, Err: errs[idx]})
					}
					continue
				}
				if r.OnCell != nil {
					r.OnCell(CellUpdate{Bench: benches[j.bi].Name, Mode: modes[j.mi],
						Index: idx, Total: nb * nm})
				}
				runs[idx], spent[idx], errs[idx] = r.runOne(ctx, base, benches[j.bi], modes[j.mi])
				if r.OnCell != nil {
					r.OnCell(CellUpdate{Bench: benches[j.bi].Name, Mode: modes[j.mi],
						Index: idx, Total: nb * nm, Done: true, Run: runs[idx], Err: errs[idx]})
				}
			}
		}()
	}
	for bi := range benches {
		for mi := range modes {
			jobs <- job{bi, mi}
		}
	}
	close(jobs)
	wg.Wait()

	// With TolerateFaults, cells that died on a guest trap (after any
	// retries) degrade to "n/a" entries instead of failing the matrix.
	faults := make([]*trap.Fault, nb*nm)
	if r.TolerateFaults {
		for idx, err := range errs {
			if f := trap.As(err); f != nil {
				faults[idx] = f
				errs[idx] = nil
			}
		}
	}

	// Fold completed runs into rows even when some cells failed: a
	// cancelled or partially failed matrix still reports what finished,
	// so interrupted tools can emit partial results alongside the error.
	rows := make([]*Row, nb)
	for bi, b := range benches {
		row := newRow(b.Name)
		for mi, mode := range modes {
			idx := bi*nm + mi
			row.Spent[mode] = spent[idx]
			if f := faults[idx]; f != nil {
				row.Faults[mode] = f
				continue
			}
			if run := runs[idx]; run != nil {
				row.Cycles[mode] = run.Cycles
				row.Stats[mode] = run.Stats
				row.HostNS[mode] = run.HostNS
				if run.Leakage != nil {
					if row.Leakage == nil {
						row.Leakage = map[core.Mode]*attack.Leakage{}
					}
					row.Leakage[mode] = run.Leakage
				}
			}
		}
		row.normalize()
		rows[bi] = row
	}

	// Collect failures in deterministic job order. The partial rows ride
	// along with the error; callers that only care about complete
	// matrices keep ignoring them.
	var errList []error
	for _, err := range errs {
		if err != nil {
			errList = append(errList, err)
		}
	}
	if len(errList) > 0 {
		return rows, errors.Join(errList...)
	}
	return rows, nil
}

// runOne executes a single matrix cell: its own config (mode applied),
// its own wall-clock guard, its own machine. Transient (injected)
// faults are retried up to r.Retries times with capped exponential
// backoff and a reseeded injector; any fault still standing afterwards
// is surfaced. A cycle budget (base.MaxCycles) covers the cell, not
// each attempt: a retry runs under what earlier attempts left, and a
// cell that has used it all ends with a cycle-budget-exceeded trap.
// The second result is the cycles the cell consumed (Row.Spent).
func (r *Runner) runOne(ctx context.Context, base dbt.Config, b Bench, mode core.Mode) (*KernelRun, uint64, error) {
	key := b.Name + "|" + mode.String()
	cell := r.Span.Child("cell", hspan.Str("bench", b.Name), hspan.Str("mode", mode.String()))
	var spent uint64
	var lastErr error
	for attempt := 0; attempt <= r.Retries; attempt++ {
		cfg := base
		if base.MaxCycles > 0 {
			// MaxCycles = 0 would mean unlimited: an exhausted budget
			// must end the cell instead.
			if spent >= base.MaxCycles {
				f := trap.Newf(trap.CycleBudgetExceeded, "cycle budget %d exhausted across %d attempts", base.MaxCycles, attempt)
				f.Cycle = spent
				lastErr = fmt.Errorf("harness: %s (%s): %w", b.Name, mode, f)
				break
			}
			cfg.MaxCycles = base.MaxCycles - spent
		}
		if attempt > 0 {
			bs := cell.Child("backoff", hspan.Int("attempt", int64(attempt)))
			err := r.Backoff.Sleep(ctx, attempt, key)
			bs.End()
			if err != nil {
				break // cancellation interrupts the backoff pause itself
			}
		}
		as := cell.Child("attempt", hspan.Int("attempt", int64(attempt)))
		run, err := r.attemptOne(ctx, cfg, b, mode, attempt)
		spent += attemptCycles(run, err, cfg.MaxCycles)
		if err == nil {
			EndAttempt(as, run)
			cell.End(hspan.Str("outcome", "ok"))
			return run, spent, nil
		}
		as.End(hspan.Str("outcome", "error"))
		lastErr = err
		if f := trap.As(err); f == nil || !f.Transient() {
			break // real fault or host error: deterministic, retrying is futile
		}
	}
	cell.End(hspan.Str("outcome", "error"))
	return nil, spent, lastErr
}

// attemptCycles is what one attempt consumed: the run's own count, or
// for a failure without a run the cycle stamp of the trap that ended
// it. The charge is capped at the attempt's budget — the machine only
// notices an exhausted budget at a block boundary, and the overshoot
// of that last block is not billed.
func attemptCycles(run *KernelRun, err error, budget uint64) uint64 {
	var c uint64
	if run != nil {
		c = run.Cycles
	} else if f := trap.As(err); f != nil {
		c = f.Cycle
	}
	if budget > 0 && c > budget {
		c = budget
	}
	return c
}

// EndAttempt finishes a successful run's span (a matrix attempt, or
// gbrun's run span), splitting it into the translation and execution
// phases from the machine's own accounting (run.TransNS, run.Cycles).
// The split renders the two as consecutive intervals — translation
// actually interleaves with execution — so the children are attributed
// durations on the timeline, not precise phases.
func EndAttempt(as hspan.Span, run *KernelRun) {
	if !as.Enabled() {
		return
	}
	if t := as.Tracer(); t != nil && run.TransNS > 0 {
		start := as.StartNS()
		as.Emit("translate", start, start+run.TransNS, hspan.Int("ns", run.TransNS))
		as.Emit("execute", start+run.TransNS, t.Now(), hspan.Int("cycles", int64(run.Cycles)))
	}
	as.End(hspan.Str("outcome", "ok"), hspan.Int("cycles", int64(run.Cycles)))
}

// attemptOne is one try of a matrix cell. attempt > 0 reseeds the fault
// injector so the retried run draws a fresh fault schedule. On failure
// the bench's partial run (if any) rides along with the error.
func (r *Runner) attemptOne(ctx context.Context, base dbt.Config, b Bench, mode core.Mode, attempt int) (*KernelRun, error) {
	runCtx := ctx
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	cfg := base
	cfg.Mitigation = mode
	cfg.Interrupt = runCtx.Done()
	if cfg.TransCache == nil {
		cfg.TransCache = r.TransCache
	}
	if cfg.FaultInject != nil && attempt > 0 {
		fi := *cfg.FaultInject
		fi.Seed += uint64(attempt)
		cfg.FaultInject = &fi
	}
	start := time.Now()
	run, err := b.Run(runCtx, cfg, r.Artifacts)
	hostNS := time.Since(start).Nanoseconds()
	if err != nil {
		prefix := ""
		if !strings.HasPrefix(err.Error(), "harness: ") {
			prefix = fmt.Sprintf("harness: %s (%s): ", b.Name, mode)
		}
		if cerr := runCtx.Err(); cerr != nil {
			return run, fmt.Errorf("%s%w: %v", prefix, cerr, err)
		}
		return run, fmt.Errorf("%s%w", prefix, err)
	}
	run.HostNS = hostNS
	return run, nil
}
