package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
)

func testBenches(t *testing.T) []Bench {
	t.Helper()
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	atax, err := polybench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	return []Bench{KernelBench(gemm, 6), KernelBench(atax, 8)}
}

// The tentpole guarantee: fanning the matrix out over many workers
// changes only the wall clock. Cycle counts, stats and rendered tables
// are bit-identical to a sequential run.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	benches := testBenches(t)
	modes := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeNoSpeculation}
	base := dbt.DefaultConfig()

	seq := &Runner{Workers: 1, Artifacts: NewArtifacts()}
	seqRows, err := seq.RunMatrix(context.Background(), base, benches, modes)
	if err != nil {
		t.Fatal(err)
	}
	par := &Runner{Workers: 8, Artifacts: NewArtifacts()}
	parRows, err := par.RunMatrix(context.Background(), base, benches, modes)
	if err != nil {
		t.Fatal(err)
	}
	// Host wall clock is the one legitimately nondeterministic field:
	// check it was measured, then blank it for the bit-identity compare.
	for _, rows := range [][]*Row{seqRows, parRows} {
		for _, r := range rows {
			for _, m := range modes {
				if r.HostNS[m] <= 0 {
					t.Fatalf("%s (%s): host time not measured", r.Name, m)
				}
			}
			r.HostNS = nil
		}
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("parallel rows differ from sequential:\nseq: %+v\npar: %+v", seqRows, parRows)
	}
	if a, b := FormatRows(seqRows, modes), FormatRows(parRows, modes); a != b {
		t.Fatalf("tables differ:\n%s\nvs\n%s", a, b)
	}
	if a, b := CSV(seqRows, modes), CSV(parRows, modes); a != b {
		t.Fatalf("CSV differs:\n%s\nvs\n%s", a, b)
	}
}

// One artifact serves the whole N-mode sweep: exactly one build (miss)
// per kernel, every other lookup a hit.
func TestRunnerSharesArtifactsAcrossModes(t *testing.T) {
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	arts := NewArtifacts()
	r := &Runner{Workers: 4, Artifacts: arts}
	modes := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation}
	if _, err := r.RunKernel(context.Background(), gemm, 6, dbt.DefaultConfig(), modes); err != nil {
		t.Fatal(err)
	}
	hits, misses := arts.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one assemble per kernel)", misses)
	}
	if hits != uint64(len(modes)-1) {
		t.Fatalf("hits = %d, want %d", hits, len(modes)-1)
	}
	if arts.Len() != 1 {
		t.Fatalf("cache holds %d artifacts, want 1", arts.Len())
	}
}

func TestRunnerCollectAllErrors(t *testing.T) {
	bad := func(name string) Bench {
		return Bench{Name: name, Run: func(context.Context, dbt.Config, *Artifacts) (*KernelRun, error) {
			return nil, fmt.Errorf("boom-%s", name)
		}}
	}
	good := Bench{Name: "good", Run: func(_ context.Context, cfg dbt.Config, _ *Artifacts) (*KernelRun, error) {
		return &KernelRun{Name: "good", Mode: cfg.Mitigation, Cycles: 1}, nil
	}}
	r := &Runner{Workers: 2}
	_, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(),
		[]Bench{bad("first"), good, bad("second")}, []core.Mode{core.ModeUnsafe})
	if err == nil {
		t.Fatal("expected joined errors")
	}
	for _, want := range []string{"boom-first", "boom-second"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("collect-all error missing %q: %v", want, err)
		}
	}
}

// The wall-clock guard reaches into the machine's dispatch loop via
// Config.Interrupt: a run that blows its timeout aborts mid-simulation.
func TestRunnerTimeout(t *testing.T) {
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 1, Timeout: time.Nanosecond, Artifacts: NewArtifacts()}
	_, err = r.RunKernel(context.Background(), gemm, 8, dbt.DefaultConfig(), []core.Mode{core.ModeUnsafe})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// A caller's own Config.Interrupt cancels the matrix: the Runner's
// per-job interrupt hook must not shadow it.
func TestRunnerHonoursConfigInterrupt(t *testing.T) {
	intr := make(chan struct{})
	close(intr)
	cfg := dbt.DefaultConfig()
	cfg.Interrupt = intr
	k, _ := polybench.ByName("gemm")
	if _, err := RunKernel(k, 8, cfg, Fig4Modes); !errors.Is(err, context.Canceled) {
		t.Errorf("RunKernel with a closed Interrupt: err = %v, want context.Canceled", err)
	}
	if _, _, err := (&Runner{}).PoCMatrix(context.Background(), cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("PoCMatrix with a closed Interrupt: err = %v, want context.Canceled", err)
	}

	// An Interrupt that fires mid-sweep reaches the running job too.
	live := make(chan struct{})
	cfg.Interrupt = live
	wait := Bench{Name: "wait", Run: func(ctx context.Context, _ dbt.Config, _ *Artifacts) (*KernelRun, error) {
		close(live)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	_, err := (&Runner{Workers: 1}).RunMatrix(context.Background(), cfg, []Bench{wait}, []core.Mode{core.ModeUnsafe})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Interrupt fired mid-sweep: err = %v, want context.Canceled", err)
	}
}

func TestRunnerHonoursParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 2, Artifacts: NewArtifacts()}
	_, err = r.RunKernel(ctx, gemm, 6, dbt.DefaultConfig(), Fig4Modes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// Hammer the shared artifact cache from many goroutines (run with
// -race): every caller for one key must get the identical artifact, and
// the build must happen exactly once per key.
func TestArtifactsSingleflight(t *testing.T) {
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	arts := NewArtifacts()
	cfg := dbt.DefaultConfig()
	const goroutines = 32
	got := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two keys interleaved: n=6 and n=7.
			n := 6 + i%2
			art, err := arts.Kernel(gemm, n, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = art
		}(i)
	}
	wg.Wait()
	for i := 2; i < goroutines; i++ {
		if got[i] != got[i%2] {
			t.Fatalf("goroutine %d got a different artifact pointer", i)
		}
	}
	hits, misses := arts.Stats()
	if misses != 2 {
		t.Fatalf("misses = %d, want 2 (one build per key)", misses)
	}
	if hits+misses != goroutines {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, goroutines)
	}
	if arts.Len() != 2 {
		t.Fatalf("cache holds %d artifacts, want 2", arts.Len())
	}
}

// A nil cache is valid: artifacts build uncached.
func TestArtifactsNilBuildsUncached(t *testing.T) {
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	var arts *Artifacts
	art, err := arts.Kernel(gemm, 6, dbt.DefaultConfig())
	if err != nil || art == nil {
		t.Fatalf("nil-cache build failed: %v", err)
	}
	if h, m := arts.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache reported stats %d/%d", h, m)
	}
}
