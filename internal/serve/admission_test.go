package serve

import (
	"context"
	"io"
	"log"
	"strings"
	"testing"
	"time"

	"ghostbusters/internal/trap"
)

// quickProg exits immediately with code 42.
const quickProg = "main:\n\tli a0, 42\n\tecall\n"

// slowProg loops for ~hundreds of millions of cycles — far past any
// budget or deadline a test sets, so only the enforcement hook can end
// it promptly.
const slowProg = `
main:
	li s1, 0
	li s2, 100000000
loop:
	addi s1, s1, 1
	blt s1, s2, loop
	li a0, 7
	ecall
`

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Workers:    2,
		QueueDepth: 8,
		JobTimeout: 30 * time.Second,
		Log:        log.New(io.Discard, "", 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// waitJob blocks until the job is terminal and returns its wire view.
func waitJob(t *testing.T, s *Server, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status()
}

func TestAdmissionValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"no tenant", JobRequest{Kind: KindRun, Program: quickProg}},
		{"unknown kind", JobRequest{Tenant: "a", Kind: "mystery"}},
		{"run without program", JobRequest{Tenant: "a", Kind: KindRun}},
		{"kernel without name", JobRequest{Tenant: "a", Kind: KindKernel}},
		{"bad mode", JobRequest{Tenant: "a", Kind: KindRun, Program: quickProg, Mode: "warp-speed"}},
		{"bad sweep mode", JobRequest{Tenant: "a", Kind: KindFig4, Modes: []string{"nope"}}},
		{"duplicate mode", JobRequest{Tenant: "a", Kind: KindFig4, Modes: []string{"unsafe", "unsafe"}}},
		{"negative n", JobRequest{Tenant: "a", Kind: KindFig4, N: -1}},
		{"negative retries", JobRequest{Tenant: "a", Kind: KindRun, Program: quickProg, Retries: -1}},
		{"inject rate > 1", JobRequest{Tenant: "a", Kind: KindRun, Program: quickProg, Inject: &InjectSpec{CacheRate: 1.5}}},
		{"oversized program", JobRequest{Tenant: "a", Kind: KindRun, Program: "main:\n" + strings.Repeat("\tnop\n", 1<<19)}},
	}
	for _, tc := range cases {
		j, status, aerr := s.admit(tc.req)
		if j != nil || status != 400 || aerr == nil || aerr.Code != CodeInvalid {
			t.Errorf("%s: admit = (%v, %d, %v), want 400 %s", tc.name, j, status, aerr, CodeInvalid)
		}
	}
}

func TestMaxInFlightQuota(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Tenants = map[string]Quota{"small": {MaxInFlight: 1}}
	})
	s.testHookBeforeRun = func(*Job) { <-gate }

	first, status, aerr := s.admit(JobRequest{Tenant: "small", Kind: KindRun, Program: quickProg})
	if aerr != nil {
		t.Fatalf("first admit rejected: %d %v", status, aerr)
	}
	_, status, aerr = s.admit(JobRequest{Tenant: "small", Kind: KindRun, Program: quickProg})
	if status != 429 || aerr == nil || aerr.Code != CodeTooManyJobs {
		t.Fatalf("second admit = (%d, %v), want 429 %s", status, aerr, CodeTooManyJobs)
	}
	if aerr.RetryAfterSec <= 0 {
		t.Fatalf("load-shed rejection has no Retry-After hint: %+v", aerr)
	}
	// Another tenant is not affected by small's cap.
	other, status, aerr := s.admit(JobRequest{Tenant: "big", Kind: KindRun, Program: quickProg})
	if aerr != nil {
		t.Fatalf("other tenant rejected: %d %v", status, aerr)
	}
	close(gate)
	if st := waitJob(t, s, first); st.State != StateDone {
		t.Fatalf("first job ended %s (%v), want done", st.State, st.Error)
	}
	if st := waitJob(t, s, other); st.State != StateDone {
		t.Fatalf("other job ended %s (%v), want done", st.State, st.Error)
	}
	// The slot is free again after settlement.
	if _, status, aerr = s.admit(JobRequest{Tenant: "small", Kind: KindRun, Program: quickProg}); aerr != nil {
		t.Fatalf("post-settle admit rejected: %d %v", status, aerr)
	}
}

func TestCycleBudgetEnforcedBySimulator(t *testing.T) {
	const budget = 50_000
	s := newTestServer(t, func(c *Config) {
		c.Tenants = map[string]Quota{"metered": {CycleBudget: budget}}
	})
	j, _, aerr := s.admit(JobRequest{Tenant: "metered", Kind: KindRun, Program: slowProg})
	if aerr != nil {
		t.Fatalf("admit: %v", aerr)
	}
	if j.cycleAllowance != budget {
		t.Fatalf("allowance = %d, want the full budget %d", j.cycleAllowance, budget)
	}
	st := waitJob(t, s, j)
	if st.State != StateFailed || st.Error == nil || st.Error.TrapKind != trap.CycleBudgetExceeded.String() {
		t.Fatalf("over-budget job ended %s (%+v), want failed with %s", st.State, st.Error, trap.CycleBudgetExceeded)
	}

	// The ledger settled at the clamped allowance, so the tenant is now
	// exhausted and further work is refused with a structured 403.
	s.mu.Lock()
	used := s.tenants["metered"].cyclesUsed
	reserved := s.tenants["metered"].cyclesReserved
	s.mu.Unlock()
	if used != budget || reserved != 0 {
		t.Fatalf("ledger used=%d reserved=%d, want used=%d reserved=0", used, reserved, budget)
	}
	_, status, aerr := s.admit(JobRequest{Tenant: "metered", Kind: KindRun, Program: quickProg})
	if status != 403 || aerr == nil || aerr.Code != CodeCycleExhausted {
		t.Fatalf("post-exhaustion admit = (%d, %v), want 403 %s", status, aerr, CodeCycleExhausted)
	}
}

// A metered sweep whose cells trap on their share of the allowance is
// charged the cycles those cells ran — the same metering a run job
// gets — not only the cycles of cells that completed.
func TestSweepChargesTrappedCells(t *testing.T) {
	const budget = 40_000
	s := newTestServer(t, func(c *Config) {
		c.Tenants = map[string]Quota{"metered": {CycleBudget: budget}}
	})
	j, _, aerr := s.admit(JobRequest{Tenant: "metered", Kind: KindKernel, Kernel: "gemm",
		Modes: []string{"unsafe", "ghostbusters"}})
	if aerr != nil {
		t.Fatalf("admit: %v", aerr)
	}
	st := waitJob(t, s, j)
	if st.State != StateFailed || st.Error == nil || st.Error.TrapKind != trap.CycleBudgetExceeded.String() {
		t.Fatalf("capped sweep ended %s (%+v), want failed with %s", st.State, st.Error, trap.CycleBudgetExceeded)
	}
	s.mu.Lock()
	used := s.tenants["metered"].cyclesUsed
	reserved := s.tenants["metered"].cyclesReserved
	s.mu.Unlock()
	if used == 0 || used > budget || reserved != 0 {
		t.Fatalf("ledger used=%d reserved=%d, want 0 < used <= %d and reserved=0", used, reserved, budget)
	}
}

func TestRequestMaxCyclesOnlyTightens(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Tenants = map[string]Quota{
			"free":    {},
			"metered": {CycleBudget: 1000},
		}
	})
	// An unmetered tenant's own cap becomes the allowance.
	j, _, aerr := s.admit(JobRequest{Tenant: "free", Kind: KindRun, Program: slowProg, MaxCycles: 20_000})
	if aerr != nil {
		t.Fatalf("admit: %v", aerr)
	}
	if j.cycleAllowance != 20_000 {
		t.Fatalf("self-capped allowance = %d, want 20000", j.cycleAllowance)
	}
	if st := waitJob(t, s, j); st.State != StateFailed || st.Error.TrapKind != trap.CycleBudgetExceeded.String() {
		t.Fatalf("self-capped job ended %+v, want cycle-budget trap", st)
	}
	// A metered tenant cannot widen its allowance past the budget.
	j2, _, aerr := s.admit(JobRequest{Tenant: "metered", Kind: KindRun, Program: quickProg, MaxCycles: 1 << 40})
	if aerr != nil {
		t.Fatalf("admit: %v", aerr)
	}
	if j2.cycleAllowance != 1000 {
		t.Fatalf("widened allowance = %d, want clamp at 1000", j2.cycleAllowance)
	}
	waitJob(t, s, j2)
}

func TestMemBudgetIsCumulative(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Tenants = map[string]Quota{"tight": {MemBudget: 16 << 20}} // exactly one machine
	})
	j, _, aerr := s.admit(JobRequest{Tenant: "tight", Kind: KindRun, Program: quickProg})
	if aerr != nil {
		t.Fatalf("first admit: %v", aerr)
	}
	if st := waitJob(t, s, j); st.State != StateDone {
		t.Fatalf("first job: %+v", st)
	}
	// The charge is cumulative: finishing the first job does not refund
	// its memory, so the second is refused.
	_, status, aerr := s.admit(JobRequest{Tenant: "tight", Kind: KindRun, Program: quickProg})
	if status != 403 || aerr == nil || aerr.Code != CodeMemExhausted {
		t.Fatalf("second admit = (%d, %v), want 403 %s", status, aerr, CodeMemExhausted)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	s.testHookBeforeRun = func(*Job) { <-gate }

	// First job occupies the lone worker; second fills the queue.
	if _, _, aerr := s.admit(JobRequest{Tenant: "a", Kind: KindRun, Program: quickProg}); aerr != nil {
		t.Fatalf("first admit: %v", aerr)
	}
	deadline := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		running := s.running
		s.mu.Unlock()
		if running == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("worker never picked up the first job")
		case <-time.After(time.Millisecond):
		}
	}
	if _, _, aerr := s.admit(JobRequest{Tenant: "b", Kind: KindRun, Program: quickProg}); aerr != nil {
		t.Fatalf("second admit: %v", aerr)
	}
	_, status, aerr := s.admit(JobRequest{Tenant: "c", Kind: KindRun, Program: quickProg})
	if status != 429 || aerr == nil || aerr.Code != CodeQueueFull {
		t.Fatalf("third admit = (%d, %v), want 429 %s", status, aerr, CodeQueueFull)
	}
	if aerr.RetryAfterSec <= 0 {
		t.Fatalf("queue-full rejection has no Retry-After hint: %+v", aerr)
	}
}

func TestDrainingRejectsSubmits(t *testing.T) {
	s := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, status, aerr := s.admit(JobRequest{Tenant: "a", Kind: KindRun, Program: quickProg})
	if status != 503 || aerr == nil || aerr.Code != CodeDraining {
		t.Fatalf("admit while draining = (%d, %v), want 503 %s", status, aerr, CodeDraining)
	}
}
