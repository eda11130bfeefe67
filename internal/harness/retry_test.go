package harness

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/trap"
)

// flakyBench fails its first failures calls with fault (per mode), then
// succeeds. It also records the injection seed of every attempt.
type flakyBench struct {
	mu       sync.Mutex
	failures int
	fault    func() *trap.Fault
	calls    map[core.Mode]int
	seeds    []uint64
}

func (fb *flakyBench) bench(name string) Bench {
	return Bench{
		Name: name,
		Run: func(_ context.Context, cfg dbt.Config, _ *Artifacts) (*KernelRun, error) {
			fb.mu.Lock()
			defer fb.mu.Unlock()
			if fb.calls == nil {
				fb.calls = map[core.Mode]int{}
			}
			fb.calls[cfg.Mitigation]++
			if cfg.FaultInject != nil {
				fb.seeds = append(fb.seeds, cfg.FaultInject.Seed)
			}
			if fb.calls[cfg.Mitigation] <= fb.failures {
				return nil, fb.fault()
			}
			return &KernelRun{Name: name, Mode: cfg.Mitigation, Cycles: 1000}, nil
		},
	}
}

func transientFault() *trap.Fault {
	f := trap.Newf(trap.CacheFault, "injected cache parity fault")
	f.Injected = true
	return f
}

func realFault() *trap.Fault {
	return trap.Newf(trap.IllegalInstruction, "illegal instruction")
}

// TestRunnerRetriesTransientFaults: a cell that fails twice with an
// injected fault succeeds on the third attempt when Retries >= 2, and
// each retry runs with a reseeded injector.
func TestRunnerRetriesTransientFaults(t *testing.T) {
	fb := &flakyBench{failures: 2, fault: transientFault}
	r := &Runner{Workers: 1, Retries: 2}
	base := dbt.DefaultConfig()
	base.FaultInject = &dbt.FaultInject{Seed: 5, CacheFaultRate: 0.5}

	rows, err := r.RunMatrix(context.Background(), base, []Bench{fb.bench("flaky")}, []core.Mode{core.ModeUnsafe})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if got := fb.calls[core.ModeUnsafe]; got != 3 {
		t.Fatalf("bench ran %d times, want 3 (1 + 2 retries)", got)
	}
	if want := []uint64{5, 6, 7}; len(fb.seeds) != 3 || fb.seeds[0] != want[0] || fb.seeds[1] != want[1] || fb.seeds[2] != want[2] {
		t.Fatalf("injector seeds per attempt = %v, want %v", fb.seeds, want)
	}
	if rows[0].Cycles[core.ModeUnsafe] != 1000 {
		t.Fatalf("recovered cell has wrong cycles: %d", rows[0].Cycles[core.ModeUnsafe])
	}
}

// TestRunnerRetriesExhausted: when the transient fault outlives the
// retry budget it surfaces as the matrix error (no TolerateFaults).
func TestRunnerRetriesExhausted(t *testing.T) {
	fb := &flakyBench{failures: 10, fault: transientFault}
	r := &Runner{Workers: 1, Retries: 2}
	_, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(), []Bench{fb.bench("flaky")}, []core.Mode{core.ModeUnsafe})
	if err == nil {
		t.Fatal("expected the exhausted cell to fail the matrix")
	}
	if f := trap.As(err); f == nil || f.Kind != trap.CacheFault {
		t.Fatalf("matrix error does not carry the guest trap: %v", err)
	}
	if got := fb.calls[core.ModeUnsafe]; got != 3 {
		t.Fatalf("bench ran %d times, want 3", got)
	}
}

// TestRunnerNeverRetriesRealFaults: deterministic guest faults are
// properties of the guest, not bad luck — one attempt only.
func TestRunnerNeverRetriesRealFaults(t *testing.T) {
	fb := &flakyBench{failures: 10, fault: realFault}
	r := &Runner{Workers: 1, Retries: 5}
	_, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(), []Bench{fb.bench("broken")}, []core.Mode{core.ModeUnsafe})
	if err == nil {
		t.Fatal("expected the real fault to fail the matrix")
	}
	if got := fb.calls[core.ModeUnsafe]; got != 1 {
		t.Fatalf("real fault was retried: bench ran %d times, want 1", got)
	}
}

// TestRunnerTolerateFaults: a persistently faulted cell degrades to an
// n/a entry (Row.Faults) while the rest of the matrix completes, and
// both renderers print "n/a" for it.
func TestRunnerTolerateFaults(t *testing.T) {
	good := (&flakyBench{}).bench("good")
	bad := &flakyBench{failures: 1 << 30, fault: realFault}
	modes := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters}

	r := &Runner{Workers: 2, TolerateFaults: true}
	rows, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(),
		[]Bench{good, bad.bench("bad")}, modes)
	if err != nil {
		t.Fatalf("RunMatrix with TolerateFaults: %v", err)
	}
	if rows[0].Cycles[core.ModeUnsafe] != 1000 || len(rows[0].Faults) != 0 {
		t.Fatalf("good row damaged: %+v", rows[0])
	}
	badRow := rows[1]
	for _, m := range modes {
		if _, ok := badRow.Cycles[m]; ok {
			t.Fatalf("faulted cell %s has cycles", m)
		}
		f := badRow.Faults[m]
		if f == nil || f.Kind != trap.IllegalInstruction {
			t.Fatalf("faulted cell %s: Faults entry = %v", m, f)
		}
	}
	table := FormatRows(rows, modes)
	if !strings.Contains(table, "n/a") {
		t.Fatalf("FormatRows does not render faulted cells as n/a:\n%s", table)
	}
	csv := CSV(rows, modes)
	if !strings.Contains(csv, "n/a") {
		t.Fatalf("CSV does not render faulted cells as n/a:\n%s", csv)
	}
}

// TestRunnerTolerateFaultsHostErrors: TolerateFaults forgives guest
// traps only — host-side errors still fail the matrix.
func TestRunnerTolerateFaultsHostErrors(t *testing.T) {
	hostErr := Bench{
		Name: "hosterr",
		Run: func(context.Context, dbt.Config, *Artifacts) (*KernelRun, error) {
			return nil, context.DeadlineExceeded
		},
	}
	r := &Runner{Workers: 1, TolerateFaults: true}
	_, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(), []Bench{hostErr}, []core.Mode{core.ModeUnsafe})
	if err == nil {
		t.Fatal("host error was tolerated")
	}
}

// burner models a guest that burns `per` cycles per attempt and
// then hits an injected (transient) fault, under the machine's budget
// rule: an attempt whose budget is smaller than `per` traps with
// cycle-budget-exceeded one cycle past the budget, like dbt.Machine,
// which only checks the budget at block boundaries. It records the
// budget every attempt ran under.
type burner struct {
	per     uint64
	budgets []uint64
}

func (b *burner) bench() Bench {
	return Bench{
		Name: "burner",
		Run: func(_ context.Context, cfg dbt.Config, _ *Artifacts) (*KernelRun, error) {
			b.budgets = append(b.budgets, cfg.MaxCycles)
			if cfg.MaxCycles > 0 && b.per > cfg.MaxCycles {
				f := trap.Newf(trap.CycleBudgetExceeded, "cycle budget exceeded (max %d)", cfg.MaxCycles)
				f.Cycle = cfg.MaxCycles + 1
				return &KernelRun{Name: "burner", Mode: cfg.Mitigation, Cycles: f.Cycle}, f
			}
			f := transientFault()
			f.Cycle = b.per
			return &KernelRun{Name: "burner", Mode: cfg.Mitigation, Cycles: b.per}, f
		},
	}
}

// TestRetriesShareTheCellBudget: MaxCycles bounds a cell, not each
// attempt. Retries run under what earlier attempts left, the cell ends
// with cycle-budget-exceeded once the budget is gone — never by handing
// a retry MaxCycles = 0, which would mean unlimited — and Row.Spent
// meters every attempt without exceeding the budget.
func TestRetriesShareTheCellBudget(t *testing.T) {
	const budget = 1000
	for _, tc := range []struct {
		name    string
		per     uint64
		budgets []uint64
	}{
		// The third attempt gets 200 cycles and traps on the budget.
		{"trap-on-remainder", 400, []uint64{1000, 600, 200}},
		// Two attempts use the budget up exactly; a third would run
		// unlimited if the remainder (0) were passed as MaxCycles.
		{"exhausted-between-attempts", 500, []uint64{1000, 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &burner{per: tc.per}
			r := &Runner{Workers: 1, Retries: 10}
			base := dbt.DefaultConfig()
			base.MaxCycles = budget
			rows, err := r.RunMatrix(context.Background(), base, []Bench{b.bench()}, []core.Mode{core.ModeUnsafe})
			f := trap.As(err)
			if f == nil || f.Kind != trap.CycleBudgetExceeded {
				t.Fatalf("cell ended with %v, want a %s trap", err, trap.CycleBudgetExceeded)
			}
			if !reflect.DeepEqual(b.budgets, tc.budgets) {
				t.Fatalf("attempt budgets = %v, want %v", b.budgets, tc.budgets)
			}
			if got := rows[0].Spent[core.ModeUnsafe]; got == 0 || got > budget {
				t.Fatalf("Spent = %d, want in (0, %d]", got, budget)
			}
		})
	}
}
