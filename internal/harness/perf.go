package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"ghostbusters/internal/core"
	"ghostbusters/internal/obs"
)

// PerfSchema identifies the perf-report JSON format. Bump it when the
// shape of PerfReport changes incompatibly; ReadPerf rejects reports
// with a different schema so a stale checker never silently compares
// apples to oranges.
const PerfSchema = "ghostbusters/bench/v1"

// PerfEntry is one (benchmark, mode) measurement. SimCycles is the
// deterministic guest-visible cost — the quantity the regression check
// compares. HostNS is this machine's wall clock for the same run; it is
// recorded for trend inspection but never compared across machines.
// Metrics is the cell's full stable-name snapshot (obs.Snapshot) —
// informational context for humans and dashboards; CheckPerf compares
// exactly SimCycles and nothing in Metrics, and baselines written
// before the field existed still load (it is optional).
type PerfEntry struct {
	Benchmark string       `json:"benchmark"`
	Mode      string       `json:"mode"`
	SimCycles uint64       `json:"sim_cycles"`
	HostNS    int64        `json:"host_ns"`
	Metrics   obs.Snapshot `json:"metrics,omitempty"`
}

// PerfReport is the file format behind gbbench -perfjson / -checkperf.
type PerfReport struct {
	Schema  string      `json:"schema"`
	Entries []PerfEntry `json:"entries"`
}

// PerfFromRows flattens measured rows into a report, one entry per
// (benchmark, mode) in the given order. Cells that were tolerated as
// faulted (no Cycles entry) get no Metrics either.
func PerfFromRows(rows []*Row, modes []core.Mode) *PerfReport {
	rep := &PerfReport{Schema: PerfSchema}
	for _, r := range rows {
		for _, m := range modes {
			e := PerfEntry{
				Benchmark: r.Name,
				Mode:      m.String(),
				SimCycles: r.Cycles[m],
				HostNS:    r.HostNS[m],
			}
			if c, ok := r.Cycles[m]; ok {
				e.Metrics = r.Stats[m].Snapshot(c)
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep
}

// WriteFile writes the report as indented JSON with a trailing newline.
func (r *PerfReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encoding perf report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerf loads and validates a perf report.
func ReadPerf(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: reading perf baseline: %w", err)
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("harness: parsing perf baseline %s: %w", path, err)
	}
	if rep.Schema != PerfSchema {
		return nil, fmt.Errorf("harness: perf baseline %s has schema %q, want %q",
			path, rep.Schema, PerfSchema)
	}
	return &rep, nil
}

// CheckPerf compares current measurements against a baseline. Simulated
// cycles are deterministic, so the check is exact: any (benchmark, mode)
// pair whose SimCycles differs from the baseline fails, fewer cycles as
// well as more — a change of guest timing must re-record the baseline,
// or a cycle that silently went missing would pass. Pairs missing
// from the current report also fail (a benchmark silently dropped is
// not a pass); pairs new in the current report are fine — they have no
// expectation yet. Host time is never compared: it varies by machine.
// All violations are reported together, not just the first.
func CheckPerf(current, baseline *PerfReport) error {
	type key struct{ bench, mode string }
	got := make(map[key]PerfEntry, len(current.Entries))
	for _, e := range current.Entries {
		got[key{e.Benchmark, e.Mode}] = e
	}
	var errs []error
	for _, want := range baseline.Entries {
		e, ok := got[key{want.Benchmark, want.Mode}]
		if !ok {
			errs = append(errs, fmt.Errorf("harness: perf: %s (%s) in baseline but not measured",
				want.Benchmark, want.Mode))
			continue
		}
		if e.SimCycles != want.SimCycles {
			errs = append(errs, fmt.Errorf("harness: perf: %s (%s): %d simulated cycles, baseline %d (%+.2f%%)",
				e.Benchmark, e.Mode, e.SimCycles, want.SimCycles,
				100*(float64(e.SimCycles)/float64(want.SimCycles)-1)))
		}
	}
	return errors.Join(errs...)
}
