package detect

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/polybench"
)

// EvalSchema identifies the evaluation document format.
const EvalSchema = "ghostbusters/detect-eval/v1"

// evalSecret is the evaluation corpus secret: 8 distinct byte values,
// so an unsafe run's ground truth is 8 distinct leaked probe lines and
// recall is measured against a non-degenerate positive.
var evalSecret = []byte{0x11, 0x23, 0x35, 0x47, 0x59, 0x6B, 0x7D, 0x8F}

// EvalConfig parameterizes one evaluation sweep. How the matrix fans
// out (workers, timeouts, retries, translation cache, spans, progress)
// is the caller's harness.Runner, passed to Eval.
type EvalConfig struct {
	// Detector is the configuration under evaluation (zero value =
	// defaults).
	Detector Config
	// KernelN overrides every kernel's problem size (0 = per-kernel
	// default). The benign corpus only needs enough cycles to span
	// many detector windows, so eval callers typically shrink it.
	KernelN int
	// Kernels is the benign corpus (nil = polybench.All()).
	Kernels []polybench.Kernel
	// Modes is the mitigation-mode axis (nil = core.Modes()).
	Modes []core.Mode
	// Secret overrides the attack corpus secret (nil = evalSecret).
	Secret []byte
}

// EvalCell is one scored matrix cell: a (benchmark, mode) run, its
// ground-truth label, and the detector's verdict on it.
type EvalCell struct {
	Bench string `json:"bench"`
	Mode  string `json:"mode"`
	// Class is "benign" (polybench kernel: structurally no attack)
	// or "attack" (a Spectre PoC ran, whether or not it leaked).
	Class string `json:"class"`
	// TruthLeak is the scoreboard's ground truth: the run actually
	// leaked secret bits into the cache. Always false for benign.
	TruthLeak  bool `json:"truth_leak"`
	BitsLeaked int  `json:"bits_leaked,omitempty"`

	Alarm      bool    `json:"alarm"`
	Confidence float64 `json:"confidence"`
	Rounds     uint64  `json:"rounds"`
	Slots      uint64  `json:"slots"`

	// TruthTriggerCycle is the scoreboard's first secret-dependent
	// speculative fill; LatencyCycles = AlarmCycle − TruthTriggerCycle
	// (negative when the detector fired on attack behaviour before
	// the first secret bit actually moved). Only meaningful when both
	// an alarm and a truth trigger exist (LatencyValid).
	TruthTriggerCycle  uint64 `json:"truth_trigger_cycle,omitempty"`
	TruthProbeHitCycle uint64 `json:"truth_probe_hit_cycle,omitempty"`
	AlarmCycle         uint64 `json:"alarm_cycle,omitempty"`
	LatencyValid       bool   `json:"latency_valid,omitempty"`
	LatencyCycles      int64  `json:"latency_cycles,omitempty"`

	Cycles uint64  `json:"cycles"`
	Report *Report `json:"report"`
}

// EvalSummary aggregates the corpus into the headline numbers. The
// detector is judged on two gated figures — recall over truth-leaking
// cells and the false-positive rate over benign cells — plus an
// ungated, honestly-reported third: mitigated attack runs the detector
// still flags. Those runs execute the full attack choreography (flush
// bursts, speculative probe loads); flagging them is behaviourally
// correct detection of an attack *attempt*, so they are reported as
// their own class instead of being laundered into either gated rate.
type EvalSummary struct {
	Cells       int `json:"cells"`
	AttackCells int `json:"attack_cells"`
	BenignCells int `json:"benign_cells"`

	// TruthPositives = attack cells that actually leaked (scoreboard
	// ground truth); TruePositives of them alarmed.
	TruthPositives int `json:"truth_positives"`
	TruePositives  int `json:"true_positives"`
	FalseNegatives int `json:"false_negatives"`

	// BenignAlarms counts alarms on benign kernels — the gated FPR.
	BenignAlarms int     `json:"benign_alarms"`
	BenignFPR    float64 `json:"benign_fpr"`

	// BlockedAttackCells = attack cells whose mitigation prevented the
	// leak; BlockedAttackAlarms of them still alarmed (attack attempt
	// flagged).
	BlockedAttackCells  int     `json:"blocked_attack_cells"`
	BlockedAttackAlarms int     `json:"blocked_attack_alarms"`
	BlockedAttackRate   float64 `json:"blocked_attack_flag_rate"`

	// Precision counts every alarm on a non-leaking cell (benign or
	// blocked) as a false positive — the strictest reading.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`

	// MeanAlarmLatencyCycles averages AlarmCycle − TruthTriggerCycle
	// over cells where both exist.
	LatencyCells           int     `json:"latency_cells,omitempty"`
	MeanAlarmLatencyCycles float64 `json:"mean_alarm_latency_cycles,omitempty"`
}

// EvalDoc is the full evaluation document: schema, the detector
// config under test, the summary, and every scored cell in
// deterministic (bench-major, mode-minor) order.
type EvalDoc struct {
	Schema      string      `json:"schema"`
	Detector    Config      `json:"detector"`
	Modes       []string    `json:"modes"`
	SecretBytes int         `json:"secret_bytes"`
	Summary     EvalSummary `json:"summary"`
	Cells       []EvalCell  `json:"cells"`
}

// JSON renders the document as stable, indented JSON with a trailing
// newline.
func (d *EvalDoc) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// evalState collects each cell's verdict, keyed by bench and mode.
type evalState struct {
	dcfg Config
	mu   sync.Mutex
	m    map[string]*Report
}

func (s *evalState) put(bench string, mode core.Mode, rep *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[bench+"|"+mode.String()] = rep
}

func (s *evalState) get(bench string, mode core.Mode) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[bench+"|"+mode.String()]
}

// Observe wraps b so each attempt of its cells runs with a private
// detector (configured by dcfg) as the machine's spec-level tracer
// sink. After a successful attempt, done receives the attempt's config
// and verdict. A failed attempt reports nothing and returns the
// bench's partial run with its error, so the Runner still meters it
// (Row.Spent). The machine never flushes cfg.Tracer itself, so the
// wrapper closes the tracer to push the stream's tail into the
// detector before reading the verdict.
func Observe(b harness.Bench, dcfg Config, done func(cfg dbt.Config, rep *Report)) harness.Bench {
	inner := b.Run
	return harness.Bench{
		Name: b.Name,
		Run: func(ctx context.Context, cfg dbt.Config, arts *harness.Artifacts) (*harness.KernelRun, error) {
			det := New(dcfg)
			cfg.Tracer = obs.New(obs.LevelSpec, det)
			run, err := inner(ctx, cfg, arts)
			_ = cfg.Tracer.Close() // detector sinks never fail
			if err != nil {
				return run, err
			}
			done(cfg, det.Report())
			return run, nil
		},
	}
}

// observe wraps b so each successful attempt files its verdict.
func (s *evalState) observe(b harness.Bench) harness.Bench {
	return Observe(b, s.dcfg, func(cfg dbt.Config, rep *Report) {
		s.put(b.Name, cfg.Mitigation, rep)
	})
}

// Eval runs the full labeled corpus — every benign kernel and both
// Spectre variants, across the mitigation-mode axis — on r with a
// private detector per cell, and scores the verdicts against ground
// truth. Deterministic at any worker count: cell order is bench-major,
// and each cell's detector sees exactly its own machine's event stream.
func Eval(ctx context.Context, r *harness.Runner, base dbt.Config, ecfg EvalConfig) (*EvalDoc, error) {
	modes := ecfg.Modes
	if modes == nil {
		modes = core.Modes()
	}
	kernels := ecfg.Kernels
	if kernels == nil {
		kernels = polybench.All()
	}
	secret := ecfg.Secret
	if secret == nil {
		secret = evalSecret
	}

	st := &evalState{dcfg: ecfg.Detector.withDefaults(), m: make(map[string]*Report)}
	var benches []harness.Bench
	benign := make(map[string]bool)
	for _, k := range kernels {
		b := st.observe(harness.KernelBench(k, ecfg.KernelN))
		benign[b.Name] = true
		benches = append(benches, b)
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		benches = append(benches, st.observe(harness.SpectreBench(v, attack.Params{Secret: secret})))
	}

	rows, err := r.RunMatrix(ctx, base, benches, modes)
	if err != nil {
		return nil, err
	}

	doc := &EvalDoc{
		Schema:      EvalSchema,
		Detector:    st.dcfg,
		SecretBytes: len(secret),
	}
	for _, m := range modes {
		doc.Modes = append(doc.Modes, m.String())
	}
	for bi, b := range benches {
		for _, mode := range modes {
			rep := st.get(b.Name, mode)
			if rep == nil {
				return nil, fmt.Errorf("detect: eval cell %s (%s) produced no report", b.Name, mode)
			}
			cell := EvalCell{
				Bench:      b.Name,
				Mode:       mode.String(),
				Class:      "attack",
				Alarm:      rep.Alarm,
				Confidence: rep.Confidence,
				Rounds:     rep.Rounds,
				Slots:      rep.Slots,
				AlarmCycle: rep.AlarmCycle,
				Cycles:     rows[bi].Cycles[mode],
				Report:     rep,
			}
			if benign[b.Name] {
				cell.Class = "benign"
			}
			if l := rows[bi].Leakage[mode]; l != nil {
				cell.TruthLeak = l.BitsLeaked > 0
				cell.BitsLeaked = l.BitsLeaked
				cell.TruthTriggerCycle = l.FirstSecretFillCycle
				cell.TruthProbeHitCycle = l.FirstProbeHitCycle
				if cell.Alarm && cell.TruthTriggerCycle != 0 {
					cell.LatencyValid = true
					cell.LatencyCycles = int64(cell.AlarmCycle) - int64(cell.TruthTriggerCycle)
				}
			}
			doc.Cells = append(doc.Cells, cell)
		}
	}
	doc.Summary = summarize(doc.Cells)
	return doc, nil
}

func summarize(cells []EvalCell) EvalSummary {
	var s EvalSummary
	s.Cells = len(cells)
	alarms := 0
	var latencySum int64
	for _, c := range cells {
		if c.Alarm {
			alarms++
		}
		if c.Class == "benign" {
			s.BenignCells++
			if c.Alarm {
				s.BenignAlarms++
			}
			continue
		}
		s.AttackCells++
		if c.TruthLeak {
			s.TruthPositives++
			if c.Alarm {
				s.TruePositives++
			} else {
				s.FalseNegatives++
			}
		} else {
			s.BlockedAttackCells++
			if c.Alarm {
				s.BlockedAttackAlarms++
			}
		}
		if c.LatencyValid {
			s.LatencyCells++
			latencySum += c.LatencyCycles
		}
	}
	if s.TruthPositives > 0 {
		s.Recall = float64(s.TruePositives) / float64(s.TruthPositives)
	}
	if s.BenignCells > 0 {
		s.BenignFPR = float64(s.BenignAlarms) / float64(s.BenignCells)
	}
	if s.BlockedAttackCells > 0 {
		s.BlockedAttackRate = float64(s.BlockedAttackAlarms) / float64(s.BlockedAttackCells)
	}
	if alarms > 0 {
		s.Precision = float64(s.TruePositives) / float64(alarms)
	}
	if s.LatencyCells > 0 {
		s.MeanAlarmLatencyCycles = float64(latencySum) / float64(s.LatencyCells)
	}
	return s
}

// Table renders the evaluation for humans: headline rates, one row
// per attack cell, and the benign corpus aggregated (individual rows
// only for the cells that — wrongly — alarmed).
func (d *EvalDoc) Table() string {
	var sb strings.Builder
	s := d.Summary
	fmt.Fprintf(&sb, "detect eval: recall %.0f%% (%d/%d leaking cells), benign FPR %.0f%% (%d/%d), precision %.2f\n",
		100*s.Recall, s.TruePositives, s.TruthPositives,
		100*s.BenignFPR, s.BenignAlarms, s.BenignCells, s.Precision)
	fmt.Fprintf(&sb, "blocked attacks flagged: %d/%d (attack attempt visible despite mitigation)\n",
		s.BlockedAttackAlarms, s.BlockedAttackCells)
	if s.LatencyCells > 0 {
		fmt.Fprintf(&sb, "mean alarm latency: %+.0f cycles from first secret-dependent fill (%d cells)\n",
			s.MeanAlarmLatencyCycles, s.LatencyCells)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-12s %-14s %-8s %-6s %-6s %10s %7s %7s %12s\n",
		"bench", "mode", "truth", "alarm", "conf", "rounds", "slots", "refills", "latency")
	for _, c := range d.Cells {
		if c.Class != "attack" && !c.Alarm {
			continue
		}
		truth := "clean"
		if c.TruthLeak {
			truth = "LEAK"
		}
		alarm := "-"
		if c.Alarm {
			alarm = "ALARM"
		}
		lat := ""
		if c.LatencyValid {
			lat = fmt.Sprintf("%+d", c.LatencyCycles)
		}
		fmt.Fprintf(&sb, "%-12s %-14s %-8s %-6s %-6.2f %10d %7d %7d %12s\n",
			c.Bench, c.Mode, truth, alarm, c.Confidence,
			c.Rounds, c.Slots, c.Report.Counters.TransientRefills, lat)
	}
	fmt.Fprintf(&sb, "\nbenign corpus: %d cells, %d alarms\n", s.BenignCells, s.BenignAlarms)
	return sb.String()
}
