package main

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
)

// The layers the traced pass times, in the order a cell calls them. The
// traced pass repeats harness.runArtifact's call sequence (and
// harness.BuildArtifact's, for generation) one public call at a time.
const (
	lMake      = iota // polybench: Kernel.Make
	lAssemble         // riscv: riscv.Assemble
	lResolve          // kbuild: kbuild.Resolve
	lNew              // dbt: dbt.New
	lLoad             // dbt: Machine.Load, which also loads the tcache document
	lInit             // guestmem: Placement.Init writes the kernel inputs
	lTranslate        // dbt: the part of Machine.Run that Machine.TranslateHostNS reports
	lExecute          // dbt: the rest of Machine.Run
	lValidate         // kbuild: Placement.Read and the comparison with the Go reference
	lRelease          // dbt: Machine.Release
	lAttack           // attack: attack.Run, for the Spectre PoC cells
	numLayers
)

var layerMetric = [numLayers]string{
	"polybench.make_ms", "riscv.assemble_ms", "kbuild.resolve_ms",
	"dbt.new_ms", "dbt.load_ms", "guestmem.init_ms", "dbt.translate_ms",
	"dbt.execute_ms", "kbuild.validate_ms", "dbt.release_ms", "attack.run_ms",
}

// Generation layers are set-up work: the traced pass reports them per
// generation of every kernel a workload uses, not per operation.
var genLayers = []int{lMake, lAssemble, lResolve}

// Operation layers account for a traced operation's wall time.
var opLayers = []int{lNew, lLoad, lInit, lTranslate, lExecute, lValidate, lRelease, lAttack}

// Snapshot counters reported per operation, under their obs.Snapshot
// names.
var countMetrics = []string{
	"dbt.translations", "dbt.blocks", "dbt.traces", "dbt.block_execs",
	"core.bundles", "core.spec_loads", "core.recoveries", "interp.insts",
	"predecode.hits", "cache.misses", "sim.instret", "tcache.hits", "tcache.misses",
}

// The PoC cells of a Figure 4 sweep attack this secret, the one
// harness.SpectreBench uses; BENCH_fig4.json's cycles depend on it.
var fig4Secret = []byte{0x5A, 0xC3}

// allocSamples is read only from the goroutine running the traced pass
// or the measured loop; it is package-level so reading it allocates
// nothing.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// heapAllocs returns the bytes and objects allocated on the heap since
// the process started. Unlike runtime.ReadMemStats it does not stop the
// world.
func heapAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ledger accumulates one traced operation's host time and heap
// allocations per layer, and the counters of the cells it ran.
type ledger struct {
	ns     [numLayers]int64
	allocs [numLayers]uint64
	snap   obs.Snapshot

	// Kernel cells only: attack.Run hides its machine.
	regions     int // translated or cache-installed regions
	bundles     uint64
	modeTransNS map[core.Mode]int64
	modeRegions map[core.Mode]int
}

func newLedger() *ledger {
	return &ledger{snap: obs.Snapshot{}, modeTransNS: map[core.Mode]int64{}, modeRegions: map[core.Mode]int{}}
}

// time runs f as one call into layer l.
func (l *ledger) time(layer int, f func() error) error {
	_, a0 := heapAllocs()
	t0 := time.Now()
	err := f()
	l.ns[layer] += time.Since(t0).Nanoseconds()
	_, a1 := heapAllocs()
	l.allocs[layer] += a1 - a0
	return err
}

func (l *ledger) layerNS(layers []int) int64 {
	var sum int64
	for _, i := range layers {
		sum += l.ns[i]
	}
	return sum
}

// kernelArt is one generated kernel: the spec, its assembled image and
// the array placements harness.BuildArtifact would prepare, plus the
// input salt the harness keys the translation cache with.
type kernelArt struct {
	spec  *polybench.Spec
	prog  *riscv.Program
	place []kbuild.Placement
	salt  string
}

// generate builds kernel k at size n layer by layer. The salt comes from
// arts, the harness's own artifact for the same kernel, so the traced
// pass looks up the same translation-cache keys the Runner does.
func (l *ledger) generate(k polybench.Kernel, n int, arts *harness.Artifacts) (*kernelArt, error) {
	if n == 0 {
		n = k.DefaultN
	}
	a := &kernelArt{}
	err := l.time(lMake, func() (err error) { a.spec, err = k.Make(n); return })
	if err == nil {
		err = l.time(lAssemble, func() (err error) { a.prog, err = riscv.Assemble(a.spec.Source); return })
	}
	if err == nil {
		err = l.time(lResolve, func() (err error) { a.place, err = kbuild.Resolve(a.prog, a.spec.Arrays); return })
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", k.Name, err)
	}
	art, err := arts.Kernel(k, n, dbt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	a.salt = art.Salt
	return a, nil
}

// cellOut is what a cell produced: its simulated cycles and counters.
type cellOut struct {
	cycles uint64
	stats  dbt.Stats
}

// kernelCell runs one kernel cell layer by layer, the way
// harness.runArtifact does, and validates its outputs.
func (l *ledger) kernelCell(cfg dbt.Config, a *kernelArt) (cellOut, error) {
	if cfg.TransCache != nil {
		cfg.TCacheSalt = a.salt
	}
	var m *dbt.Machine
	if err := l.time(lNew, func() (err error) { m, err = dbt.New(cfg); return }); err != nil {
		return cellOut{}, err
	}
	released := false
	defer func() {
		if !released {
			m.Release()
		}
	}()
	spec := a.spec
	if err := l.time(lLoad, func() error { return m.Load(a.prog) }); err != nil {
		return cellOut{}, err
	}
	err := l.time(lInit, func() error {
		for i, arr := range spec.Arrays {
			if err := a.place[i].Init(m.Mem(), spec.Inputs[arr.Name]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return cellOut{}, err
	}

	_, a0 := heapAllocs()
	t0 := time.Now()
	res, err := m.Run()
	runNS := time.Since(t0).Nanoseconds()
	_, a1 := heapAllocs()
	trans := m.TranslateHostNS()
	l.ns[lTranslate] += trans
	l.ns[lExecute] += runNS - trans
	l.allocs[lExecute] += a1 - a0 // Run's allocations, reported as dbt.run_allocs
	if err != nil {
		return cellOut{}, fmt.Errorf("%s (%s): %w", spec.Name, cfg.Mitigation, err)
	}
	if res.Exit.Code != 0 {
		return cellOut{}, fmt.Errorf("%s (%s): guest exit code %d", spec.Name, cfg.Mitigation, res.Exit.Code)
	}

	err = l.time(lValidate, func() error {
		for _, out := range spec.Outputs {
			pl, ok := placement(a.place, out)
			if !ok {
				return fmt.Errorf("%s: no placement for %s", spec.Name, out)
			}
			got, err := pl.Read(m.Mem())
			if err != nil {
				return err
			}
			for i, want := range spec.Expected[out] {
				if got[i] != want {
					return fmt.Errorf("%s (%s): output %s[%d] = %d, reference %d",
						spec.Name, cfg.Mitigation, out, i, got[i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		return cellOut{}, err
	}
	released = true
	l.time(lRelease, func() error { m.Release(); return nil })

	regions := res.Stats.Blocks + res.Stats.Traces
	l.regions += regions
	l.bundles += res.Stats.Bundles
	l.modeTransNS[cfg.Mitigation] += trans
	l.modeRegions[cfg.Mitigation] += regions
	l.snap.Add(res.Stats.Snapshot(res.Cycles))
	return cellOut{res.Cycles, res.Stats}, nil
}

func placement(ps []kbuild.Placement, name string) (kbuild.Placement, bool) {
	for _, p := range ps {
		if p.Arr.Name == name {
			return p, true
		}
	}
	return kbuild.Placement{}, false
}

// attackCell runs one Spectre PoC cell through attack.Run and applies
// the leak gate to its scoreboard.
func (l *ledger) attackCell(v attack.Variant, cfg dbt.Config, secret []byte) (cellOut, error) {
	var res *attack.Result
	err := l.time(lAttack, func() (err error) {
		res, err = attack.Run(v, cfg, attack.Params{Secret: secret})
		return
	})
	if err != nil {
		return cellOut{}, err
	}
	if err := checkLeak(res, cfg.Mitigation); err != nil {
		return cellOut{}, err
	}
	l.snap.Add(res.Stats.Snapshot(res.Cycles))
	return cellOut{res.Cycles, res.Stats}, nil
}

// checkLeak is the leak gate: the unsafe machine must give the whole
// secret away, and every mitigation must leak no bit of it.
func checkLeak(res *attack.Result, mode core.Mode) error {
	if mode == core.ModeUnsafe {
		if !res.Success() {
			return fmt.Errorf("leak gate: %s under unsafe recovered %d of %d secret bytes",
				res.Variant, res.BytesCorrect, len(res.Secret))
		}
		return nil
	}
	if res.Leakage.BitsLeaked != 0 {
		return fmt.Errorf("leak gate: %s under %s leaked %d bits", res.Variant, mode, res.Leakage.BitsLeaked)
	}
	return nil
}

// layerValues turns a traced operation's ledger into per-layer metrics,
// each divided by ops. wallNS is the operations' total wall time; what
// the layers do not account for is reported as harness.overhead_ms, so
// the operation layers plus the overhead add up to the wall time.
func (l *ledger) layerValues(wallNS int64, ops float64) map[string]float64 {
	v := map[string]float64{}
	for _, i := range opLayers {
		v[layerMetric[i]] = float64(l.ns[i]) / 1e6 / ops
	}
	v["harness.overhead_ms"] = float64(wallNS-l.layerNS(opLayers)) / 1e6 / ops
	v["dbt.new_allocs"] = float64(l.allocs[lNew]) / ops
	v["dbt.load_allocs"] = float64(l.allocs[lLoad]) / ops
	v["dbt.run_allocs"] = float64(l.allocs[lExecute]) / ops
	v["dbt.release_allocs"] = float64(l.allocs[lRelease]) / ops
	v["dbt.translate_us_per_region"] = ratio(float64(l.ns[lTranslate])/1e3, float64(l.regions))
	v["dbt.execute_ns_per_bundle"] = ratio(float64(l.ns[lExecute]), float64(l.bundles))
	for _, mode := range harness.Fig4Modes {
		v["pipeline.translate_us_per_region."+mode.String()] =
			ratio(float64(l.modeTransNS[mode])/1e3, float64(l.modeRegions[mode]))
	}
	for _, name := range countMetrics {
		v[name] = float64(l.snap[name]) / ops
	}
	hits, misses := float64(l.snap["tcache.hits"]), float64(l.snap["tcache.misses"])
	v["tcache.hit_ratio"] = ratio(hits, hits+misses)
	return v
}

// genValues reports a generation ledger's layer times.
func (l *ledger) genValues() map[string]float64 {
	v := map[string]float64{}
	for _, i := range genLayers {
		v[layerMetric[i]] = float64(l.ns[i]) / 1e6
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnit gives a per-layer metric's unit, which its name spells.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us_per_"):
		return "us"
	case strings.Contains(name, "_ns_per_"):
		return "ns"
	default:
		return "count"
	}
}
