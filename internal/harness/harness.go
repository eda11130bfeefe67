// Package harness drives the paper's experiments: it runs the generated
// benchmark kernels and the Spectre proof-of-concept applications under
// each mitigation mode, validates guest results against the native Go
// references, and renders the evaluation tables (the proof-of-concept
// matrix of Section V-A and the slowdown comparison of Figure 4,
// including the fence variant and the pointer-layout matmul of Section
// V-B).
package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/trap"
)

// KernelRun is one kernel execution under one configuration.
type KernelRun struct {
	Name   string
	Mode   core.Mode
	Cycles uint64
	Stats  dbt.Stats
	// HostNS is host wall-clock time for the run in nanoseconds,
	// measured by the Runner around the whole job (build, load, run,
	// validate). Zero when the run was not produced by a Runner. Host
	// time is a property of the simulator, not the simulated machine:
	// it feeds the perf-regression layer, never the guest.
	HostNS int64
	// TransNS is the host time the machine spent translating regions
	// (dbt.Machine.TranslateHostNS) — the translate-vs-execute split
	// host spans attribute per cell. Zero for runs without machine
	// access (the Spectre PoC bench).
	TransNS int64
	// Leakage is the side-channel scoreboard of a Spectre PoC run (nil
	// for kernels).
	Leakage *attack.Leakage
}

// RunSpec executes a kernel spec on a fresh machine and validates every
// output array against the reference. A mismatch is an error: the
// benchmark harness doubles as an end-to-end correctness check. Like
// Bench.Run, a failure after the guest ran still returns the KernelRun
// carrying the cycles the machine consumed.
func RunSpec(spec *polybench.Spec, cfg dbt.Config) (*KernelRun, error) {
	art, err := BuildArtifact(spec)
	if err != nil {
		return nil, err
	}
	return runArtifact(art, cfg)
}

// runArtifact executes a prepared artifact on a fresh machine. The
// artifact is read-only, so many runArtifact calls may share it
// concurrently.
func runArtifact(art *Artifact, cfg dbt.Config) (*KernelRun, error) {
	spec := art.Spec
	if cfg.TransCache != nil {
		// Key the translation cache by this artifact's inputs as well as
		// its image (the inputs are written into guest memory below,
		// after Load, so the image hash alone cannot see them).
		cfg.TCacheSalt = art.Salt
	}
	m, err := dbt.New(cfg)
	if err != nil {
		return nil, err
	}
	// Recycle the guest memory once the outputs have been validated
	// (Placement.Read copies): a matrix sweep then reuses one image per
	// worker instead of allocating a fresh multi-megabyte one per cell.
	defer m.Release()
	if err := m.Load(art.Prog); err != nil {
		return nil, err
	}
	for i, a := range spec.Arrays {
		if err := art.place[i].Init(m.Mem(), spec.Inputs[a.Name]); err != nil {
			return nil, fmt.Errorf("harness: %s: init %s: %w", spec.Name, a.Name, err)
		}
	}
	res, err := m.Run()
	run := &KernelRun{Name: spec.Name, Mode: cfg.Mitigation, Cycles: m.Cycles(), TransNS: m.TranslateHostNS()}
	if err != nil {
		return run, fmt.Errorf("harness: %s (%s): %w", spec.Name, cfg.Mitigation, err)
	}
	run.Stats = res.Stats
	if res.Exit.Code != 0 {
		return run, fmt.Errorf("harness: %s: guest exit code %d", spec.Name, res.Exit.Code)
	}
	if res.Stats.CompileErrs != 0 {
		return run, fmt.Errorf("harness: %s: %d DBT compile errors", spec.Name, res.Stats.CompileErrs)
	}
	for _, out := range spec.Outputs {
		pl, err := art.placeFor(out)
		if err != nil {
			return run, err
		}
		got, err := pl.Read(m.Mem())
		if err != nil {
			return run, err
		}
		want := spec.Expected[out]
		for i := range want {
			if got[i] != want[i] {
				return run, fmt.Errorf("harness: %s (%s): output %s[%d] = %d, reference %d",
					spec.Name, cfg.Mitigation, out, i, got[i], want[i])
			}
		}
	}
	return run, nil
}

// validateSpec checks the spec's internal consistency up front — most
// importantly that every named output is actually declared in Arrays, so
// a typo surfaces as a descriptive error instead of a nil dereference
// mid-run.
func validateSpec(spec *polybench.Spec) error {
	for _, out := range spec.Outputs {
		if findArray(spec, out) == nil {
			return fmt.Errorf("harness: %s: output %q is not declared in Arrays", spec.Name, out)
		}
	}
	return nil
}

func findArray(spec *polybench.Spec, name string) *kbuild.Array {
	for _, a := range spec.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Row is one benchmark's cycles and slowdowns across modes.
//
// Slowdowns are relative to the ModeUnsafe baseline; when the measured
// mode list does not include ModeUnsafe there is nothing to normalise
// against, the Slowdown map stays empty, and the renderers print "n/a"
// instead of a misleading 0.0%.
type Row struct {
	Name     string
	Cycles   map[core.Mode]uint64
	Slowdown map[core.Mode]float64 // relative to ModeUnsafe; empty without the baseline
	Stats    map[core.Mode]dbt.Stats
	HostNS   map[core.Mode]int64 // host wall clock per run (perf layer; not rendered in tables)

	// Spent is the simulated cycles each cell consumed over all its
	// attempts — failed, trapped and interrupted ones included — with
	// each attempt capped at the cycle budget it ran under. It is what
	// a metered caller bills; 0 for a cell that never ran.
	Spent map[core.Mode]uint64

	// Faults holds the guest trap that killed a cell when the Runner ran
	// with TolerateFaults; such cells have no Cycles/Stats entry and the
	// renderers print "n/a" for them.
	Faults map[core.Mode]*trap.Fault

	// Leakage is the scoreboard of each Spectre PoC cell; nil for rows
	// whose runs carry none (kernels).
	Leakage map[core.Mode]*attack.Leakage
}

func newRow(name string) *Row {
	return &Row{
		Name:     name,
		Cycles:   map[core.Mode]uint64{},
		Slowdown: map[core.Mode]float64{},
		Stats:    map[core.Mode]dbt.Stats{},
		HostNS:   map[core.Mode]int64{},
		Spent:    map[core.Mode]uint64{},
		Faults:   map[core.Mode]*trap.Fault{},
	}
}

// normalize computes slowdowns relative to the ModeUnsafe baseline. It
// is a no-op when the baseline was not measured.
func (r *Row) normalize() {
	if unsafe, ok := r.Cycles[core.ModeUnsafe]; ok && unsafe > 0 {
		for mode, c := range r.Cycles {
			r.Slowdown[mode] = float64(c) / float64(unsafe)
		}
	}
}

// Fig4Modes are the modes the paper's Figure 4 compares (plus the fence
// variant from the text's third experiment), as core's mode table
// flags them, so the byte-identity and -checkperf gates keep covering
// exactly the paper's comparison.
var Fig4Modes = core.Fig4Modes()

// AllModes returns every mitigation mode in mode-value order. A mode
// added to core's table appears in the full benchmark and leakage
// matrices through this.
func AllModes() []core.Mode { return core.Modes() }

// RunKernel measures one kernel under the given modes. The modes fan
// out over the default worker pool, sharing one assembled artifact.
func RunKernel(k polybench.Kernel, n int, base dbt.Config, modes []core.Mode) (*Row, error) {
	r := &Runner{Artifacts: NewArtifacts()}
	return r.RunKernel(context.Background(), k, n, base, modes)
}

// Fig4 runs the whole Figure 4 experiment: every Polybench kernel plus
// the two Spectre applications, under the requested modes. The matrix
// fans out over a default-sized worker pool; use a Runner directly to
// control parallelism, timeouts and error policy.
func Fig4(base dbt.Config, modes []core.Mode, sizeOverride int) ([]*Row, error) {
	r := &Runner{Artifacts: NewArtifacts()}
	return r.Fig4(context.Background(), base, modes, sizeOverride)
}

// GeoMean returns the geometric-mean slowdown for a mode over rows.
func GeoMean(rows []*Row, mode core.Mode) float64 {
	prod := 1.0
	n := 0
	for _, r := range rows {
		if s, ok := r.Slowdown[mode]; ok && s > 0 {
			prod *= s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// FormatRows renders the slowdown table the way Figure 4 reports it
// (percent of unsafe execution time; lower is better). Slowdowns require
// the ModeUnsafe baseline among the measured modes; without it the
// percentage cells read "n/a".
func FormatRows(rows []*Row, modes []core.Mode) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "benchmark")
	for _, m := range modes {
		fmt.Fprintf(&sb, " %14s", m)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s", r.Name)
		for _, m := range modes {
			if m == core.ModeUnsafe {
				if c, ok := r.Cycles[m]; ok {
					fmt.Fprintf(&sb, " %11d cy", c)
				} else {
					fmt.Fprintf(&sb, " %14s", "n/a")
				}
				continue
			}
			if s, ok := r.Slowdown[m]; ok {
				fmt.Fprintf(&sb, " %13.1f%%", 100*s)
			} else {
				fmt.Fprintf(&sb, " %14s", "n/a")
			}
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-12s", "geo-mean")
	for _, m := range modes {
		if m == core.ModeUnsafe {
			fmt.Fprintf(&sb, " %14s", "(baseline)")
			continue
		}
		if g := GeoMean(rows, m); g > 0 {
			fmt.Fprintf(&sb, " %13.1f%%", 100*g)
		} else {
			fmt.Fprintf(&sb, " %14s", "n/a")
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

// PoCMatrix runs the Section V-A proof-of-concept matrix on the
// runner — both attacks under every mitigation mode — and renders
// it twice: as a table, and as the leakage matrix where each cell
// reports the scoreboard's ground-truth bits leaked and the attack's
// slowdown relative to the unsafe baseline. Every cell must have run: a
// leakage matrix with a hole (a cell faulted under TolerateFaults, say)
// cannot show that nothing leaked, so it is an error.
func (r *Runner) PoCMatrix(ctx context.Context, base dbt.Config) (string, *attack.LeakMatrix, error) {
	modes := AllModes()
	var benches []Bench
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		benches = append(benches, SpectreBench(v, attack.Params{}))
	}
	rows, err := r.RunMatrix(ctx, base, benches, modes)
	if err != nil {
		return "", nil, err
	}
	lm := &attack.LeakMatrix{Schema: attack.LeakMatrixSchema}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-14s %-10s %-10s %-10s %-9s %s\n",
		"attack", "mitigation", "leaked", "bytes", "bits-gt", "slowdown", "notes")
	for _, row := range rows {
		for _, mode := range modes {
			l := row.Leakage[mode]
			if l == nil {
				// Only a fault tolerated by TolerateFaults leaves a
				// cell without a run in a matrix that succeeded.
				return "", nil, fmt.Errorf("harness: %s (%s): a hole in the leakage matrix: %w", row.Name, mode, row.Faults[mode])
			}
			cell := attack.LeakCell{
				Variant:      row.Name,
				Mode:         mode.String(),
				SecretBytes:  l.SecretBytes,
				LeakedBytes:  l.LeakedBytes,
				BitsLeaked:   l.BitsLeaked,
				BytesCorrect: l.BytesCorrect,
				Cycles:       row.Cycles[mode],
				Slowdown:     row.Slowdown[mode],
			}
			lm.Cells = append(lm.Cells, cell)
			leaked := "NO"
			if l.BytesCorrect == l.SecretBytes {
				leaked = "YES"
			} else if l.BytesCorrect > 0 {
				leaked = "PARTIAL"
			}
			slow := "n/a"
			if cell.Slowdown > 0 {
				slow = fmt.Sprintf("%.2fx", cell.Slowdown)
			}
			st := row.Stats[mode]
			fmt.Fprintf(&sb, "%-12s %-14s %-10s %2d/%-7d %-10d %-9s specloads=%d recoveries=%d patterns=%d\n",
				row.Name, mode, leaked, l.BytesCorrect, l.SecretBytes, l.BitsLeaked, slow,
				st.SpecLoads, st.Recoveries, st.PatternsFound)
		}
	}
	return sb.String(), lm, nil
}

// SortRows orders rows by name for stable output.
func SortRows(rows []*Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
}

// CSV renders rows machine-readably (one line per benchmark/mode pair):
// benchmark,mode,cycles,slowdown,spec_loads,recoveries,patterns. The
// slowdown column requires the ModeUnsafe baseline among the measured
// modes and renders "n/a" without it.
func CSV(rows []*Row, modes []core.Mode) string {
	var sb strings.Builder
	sb.WriteString("benchmark,mode,cycles,slowdown,spec_loads,recoveries,patterns_found,risky_loads\n")
	for _, r := range rows {
		for _, m := range modes {
			cyc := "n/a"
			if c, ok := r.Cycles[m]; ok {
				cyc = fmt.Sprintf("%d", c)
			}
			st := r.Stats[m]
			slow := "n/a"
			if s, ok := r.Slowdown[m]; ok {
				slow = fmt.Sprintf("%.4f", s)
			}
			fmt.Fprintf(&sb, "%s,%s,%s,%s,%d,%d,%d,%d\n",
				r.Name, m, cyc, slow,
				st.SpecLoads, st.Recoveries, st.PatternsFound, st.RiskyLoads)
		}
	}
	return sb.String()
}
