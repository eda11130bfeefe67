package harness

import (
	"context"
	"testing"
	"time"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
)

// TestBackoffSchedule: the deterministic shape of the capped exponential
// schedule — doubling from Base, capped at Max, jitter within [d/2, d),
// and reproducible for the same (seed, key, attempt).
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Seed: 7}
	uncapped := []time.Duration{
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond, // attempt 2
		40 * time.Millisecond, // attempt 3 hits the cap
		40 * time.Millisecond, // and stays there
		40 * time.Millisecond,
	}
	for i, want := range uncapped {
		attempt := i + 1
		d := b.Delay(attempt, "cell")
		if d < want/2 || d >= want {
			t.Errorf("attempt %d: delay %v outside jitter window [%v, %v)", attempt, d, want/2, want)
		}
		if again := b.Delay(attempt, "cell"); again != d {
			t.Errorf("attempt %d: delay not deterministic: %v then %v", attempt, d, again)
		}
	}

	// Distinct seeds and distinct keys draw distinct jitter (with the
	// window only 5ms wide per attempt, collisions across all five
	// attempts at once would mean the stream is not keyed at all).
	same, sameKey := 0, 0
	for attempt := 1; attempt <= 5; attempt++ {
		if b.Delay(attempt, "cell") == (Backoff{Base: b.Base, Max: b.Max, Seed: 8}).Delay(attempt, "cell") {
			same++
		}
		if b.Delay(attempt, "cell") == b.Delay(attempt, "other") {
			sameKey++
		}
	}
	if same == 5 {
		t.Error("jitter ignores the seed")
	}
	if sameKey == 5 {
		t.Error("jitter ignores the key")
	}
}

// TestBackoffDefaults: zero Base disables sleeping, zero Max defaults to
// 8×Base, and out-of-range attempts cost nothing.
func TestBackoffDefaults(t *testing.T) {
	if d := (Backoff{}).Delay(3, "x"); d != 0 {
		t.Errorf("zero policy sleeps %v", d)
	}
	if d := (Backoff{Base: time.Second}).Delay(0, "x"); d != 0 {
		t.Errorf("attempt 0 sleeps %v", d)
	}
	b := Backoff{Base: 10 * time.Millisecond} // implied cap: 80ms
	for attempt := 1; attempt <= 12; attempt++ {
		if d := b.Delay(attempt, "x"); d >= 80*time.Millisecond {
			t.Errorf("attempt %d: delay %v above the implied 8×Base cap", attempt, d)
		}
	}
}

// TestBackoffSleepCancellation: a cancelled context interrupts the
// backoff sleep immediately instead of letting it run out.
func TestBackoffSleepCancellation(t *testing.T) {
	b := Backoff{Base: time.Minute, Max: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- b.Sleep(ctx, 1, "cell") }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Sleep returned nil after cancellation")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("Sleep took %v to notice the cancellation", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Sleep did not return after cancellation")
	}
}

// TestRunnerBackoffCancellation: cancelling the matrix mid-backoff ends
// the run promptly — the retry pause does not hold the matrix hostage.
func TestRunnerBackoffCancellation(t *testing.T) {
	attempted := make(chan struct{}, 16)
	fb := Bench{
		Name: "flaky",
		Run: func(context.Context, dbt.Config, *Artifacts) (*KernelRun, error) {
			select {
			case attempted <- struct{}{}:
			default:
			}
			return nil, transientFault()
		},
	}
	r := &Runner{Workers: 1, Retries: 3, Backoff: Backoff{Base: time.Minute, Max: time.Minute}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.RunMatrix(ctx, dbt.DefaultConfig(), []Bench{fb}, []core.Mode{core.ModeUnsafe})
		done <- err
	}()
	<-attempted // first attempt has failed; the worker is now in backoff
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled matrix returned nil error")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("matrix took %v to wind down after cancel (backoff was 1m)", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("matrix did not return after cancellation during backoff")
	}
}

// TestRunMatrixPartialRows: a matrix that fails still reports the cells
// that completed, so interrupted tools can emit partial results.
func TestRunMatrixPartialRows(t *testing.T) {
	good := Bench{
		Name: "good",
		Run: func(_ context.Context, cfg dbt.Config, _ *Artifacts) (*KernelRun, error) {
			return &KernelRun{Name: "good", Mode: cfg.Mitigation, Cycles: 1234}, nil
		},
	}
	bad := Bench{
		Name: "bad",
		Run: func(context.Context, dbt.Config, *Artifacts) (*KernelRun, error) {
			return nil, realFault()
		},
	}
	r := &Runner{Workers: 2}
	rows, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(),
		[]Bench{good, bad}, []core.Mode{core.ModeUnsafe})
	if err == nil {
		t.Fatal("matrix with a failing cell returned nil error")
	}
	if len(rows) != 2 {
		t.Fatalf("partial rows: got %d, want 2", len(rows))
	}
	if rows[0].Cycles[core.ModeUnsafe] != 1234 {
		t.Fatalf("completed cell missing from partial rows: %+v", rows[0])
	}
	if _, ok := rows[1].Cycles[core.ModeUnsafe]; ok {
		t.Fatalf("failed cell has a cycles entry: %+v", rows[1])
	}
}
