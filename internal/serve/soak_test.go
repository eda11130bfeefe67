package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ghostbusters/internal/harness"
)

// TestSoak hammers one server with hundreds of concurrent jobs from
// several tenants — quick runs, budget-capped runs, kernel sweeps,
// chaos jobs under fault injection, and mid-flight cancellations — and
// then proves the robustness contract held:
//
//   - every admitted job reached a terminal state with either a result
//     or a structured error,
//   - every rejection was structured (a known code, never a panic),
//   - no tenant exceeded its cycle or memory budget,
//   - the ledgers settled to zero reservations and zero in-flight,
//   - and the fleet drained without leaking a single goroutine.
//
// Run it under -race: the point is as much the locking as the counts.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m >= n {
				return m
			}
			n = m
		}
		return n
	}
	before := settle()

	const (
		cycleBudget = 2_000_000
		memBudget   = 40 * (16 << 20) // 40 machines
	)
	s := newTestServer(t, func(c *Config) {
		c.Workers = 8
		c.QueueDepth = 256
		c.JobTimeout = 60 * time.Second
		c.Backoff = harness.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}
		c.Tenants = map[string]Quota{
			"free":    {MaxInFlight: -1},
			"metered": {MaxInFlight: -1, CycleBudget: cycleBudget},
			"bursty":  {MaxInFlight: 4},
			"memcap":  {MaxInFlight: -1, MemBudget: memBudget},
			"chaos":   {MaxInFlight: -1},
		}
	})

	type outcome struct {
		tenant string
		state  string // terminal job state, or "" for a rejection
		code   string // error code, if any
	}
	const perTenant = 50 // 5 tenants x 50 = 250 concurrent submissions
	results := make(chan outcome, 5*perTenant)
	var wg sync.WaitGroup

	submit := func(tenant string, req JobRequest, cancelIt bool) {
		defer wg.Done()
		req.Tenant = tenant
		j, _, aerr := s.admit(req)
		if aerr != nil {
			results <- outcome{tenant: tenant, code: aerr.Code}
			return
		}
		if cancelIt {
			j.cancel()
		}
		select {
		case <-j.done:
		case <-time.After(120 * time.Second):
			t.Errorf("soak: %s (%s) never finished", j.ID, tenant)
			results <- outcome{tenant: tenant, state: "stuck"}
			return
		}
		s.mu.Lock()
		st := j.status()
		s.mu.Unlock()
		o := outcome{tenant: tenant, state: st.State}
		if st.Error != nil {
			o.code = st.Error.Code
		}
		results <- o
	}

	for i := 0; i < perTenant; i++ {
		wg.Add(5)
		// free: plain quick runs, a few of them cancelled mid-flight.
		go submit("free", JobRequest{Kind: KindRun, Program: quickProg}, i%10 == 0)
		// metered: runs that would exceed the shared cycle budget — the
		// early ones are killed by their allowance, the late ones are
		// refused at admission.
		go submit("metered", JobRequest{Kind: KindRun, Program: slowProg}, false)
		// bursty: more concurrency than the in-flight cap allows.
		go submit("bursty", JobRequest{Kind: KindRun, Program: quickProg, MaxCycles: 100_000}, false)
		// memcap: every machine charges 16 MiB against a 40-machine budget.
		go submit("memcap", JobRequest{Kind: KindRun, Program: quickProg}, false)
		// chaos: fault injection with retries; spurious interrupts and
		// cache faults at moderate rates, deterministic per-index seed.
		go submit("chaos", JobRequest{
			Kind: KindRun, Program: slowProg, MaxCycles: 50_000,
			Inject:  &InjectSpec{Seed: uint64(i), InterruptRate: 0.2, CacheRate: 0.001},
			Retries: 2,
		}, false)
	}
	wg.Wait()
	close(results)

	perState := map[string]int{}
	perCode := map[string]int{}
	admitted := 0
	for o := range results {
		if o.state == "stuck" {
			continue // already failed the test above
		}
		if o.state == "" {
			perCode[o.code]++
			switch o.code {
			case CodeTooManyJobs, CodeQueueFull, CodeCycleExhausted, CodeMemExhausted:
			default:
				t.Errorf("soak: unexpected rejection code %q", o.code)
			}
			continue
		}
		admitted++
		perState[o.state]++
		switch o.state {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Errorf("soak: job ended in non-terminal state %q", o.state)
		}
	}
	t.Logf("soak: %d admitted %v, %d rejected %v", admitted, perState, 5*perTenant-admitted, perCode)
	if admitted == 0 || perState[StateDone] == 0 {
		t.Fatalf("soak ran nothing: admitted=%d states=%v", admitted, perState)
	}

	// Quota invariants: budgets were never exceeded and every ledger
	// settled.
	s.mu.Lock()
	for name, ts := range s.tenants {
		if ts.inFlight != 0 || ts.cyclesReserved != 0 {
			t.Errorf("tenant %s ledger did not settle: inFlight=%d reserved=%d", name, ts.inFlight, ts.cyclesReserved)
		}
	}
	if used := s.tenants["metered"].cyclesUsed; used > cycleBudget {
		t.Errorf("metered tenant used %d cycles, budget %d", used, cycleBudget)
	}
	if used := s.tenants["memcap"].memUsed; used > memBudget {
		t.Errorf("memcap tenant charged %d bytes, budget %d", used, memBudget)
	}
	bursty := s.tenants["bursty"].rejects
	s.mu.Unlock()
	if bursty == 0 {
		t.Errorf("bursty tenant (cap 4, %d concurrent submits) was never shed", perTenant)
	}

	// Latency histograms populated under load: every tenant that got
	// work admitted has a queue-wait distribution with a meaningful p99
	// (250 submissions onto 8 workers guarantees real queueing).
	s.metrics.mu.Lock()
	if len(s.metrics.queueWait) == 0 {
		t.Error("soak produced no queue-wait histograms")
	}
	for tenant, h := range s.metrics.queueWait {
		if h.Count() == 0 {
			t.Errorf("tenant %s queue-wait histogram is empty", tenant)
			continue
		}
		if p99 := h.Quantile(0.99); p99 <= 0 {
			t.Errorf("tenant %s queue-wait p99 = %d ns, want > 0", tenant, p99)
		}
	}
	for tenant, h := range s.metrics.jobWall {
		if h.Count() == 0 || h.Quantile(0.5) <= 0 {
			t.Errorf("tenant %s job-wall histogram unpopulated (count=%d)", tenant, h.Count())
		}
	}
	s.metrics.mu.Unlock()

	// Drain and prove no goroutine outlived the fleet.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.After(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			n := runtime.NumGoroutine()
			stack := buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before soak, %d after drain\n%s", before, n, limit(string(stack), 8000))
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func limit(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + fmt.Sprintf("\n... (%d bytes truncated)", len(s)-n)
}
