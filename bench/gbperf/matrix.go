package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/tcache"
)

// cacheKind is where a matrix workload's translations come from.
type cacheKind int

const (
	noCache   cacheKind = iota // every cell translates from scratch
	memCache                   // one in-memory tcache the warm-up sweep filled
	diskCache                  // a fresh tcache handle per sweep over a filled directory
)

// matrixWorkload runs Figure 4 style sweeps: every polybench kernel at
// its paper size plus the two Spectre PoCs, under each of its modes, on
// a one-worker harness.Runner.
type matrixWorkload struct {
	modes []core.Mode
	cache cacheKind
}

var (
	matrixCold = matrixWorkload{harness.AllModes(), noCache}
	fig4Warm   = matrixWorkload{harness.Fig4Modes, memCache}
	fig4Disk   = matrixWorkload{harness.Fig4Modes, diskCache}
)

var pocVariants = []attack.Variant{attack.V1, attack.V4}

// matrixEnv is one set-up of a matrix workload: the artifacts and the
// translation cache its sweeps share, and the cells of its warm-up
// sweep.
type matrixEnv struct {
	arts *harness.Artifacts
	mem  *tcache.Cache
	dir  string
	ref  map[string]cellOut
}

func (w matrixWorkload) benches() []harness.Bench {
	var bs []harness.Bench
	for _, k := range polybench.All() {
		bs = append(bs, harness.KernelBench(k, 0))
	}
	for _, v := range pocVariants {
		bs = append(bs, pocBench(v))
	}
	return bs
}

// pocBench is harness.SpectreBench with the leak gate applied to every
// run.
func pocBench(v attack.Variant) harness.Bench {
	return harness.Bench{
		Name: v.String(),
		Run: func(_ context.Context, cfg dbt.Config, _ *harness.Artifacts) (*harness.KernelRun, error) {
			res, err := attack.Run(v, cfg, attack.Params{Secret: fig4Secret})
			if err != nil {
				return nil, err
			}
			if err := checkLeak(res, cfg.Mitigation); err != nil {
				return nil, err
			}
			return &harness.KernelRun{Name: v.String(), Mode: cfg.Mitigation, Cycles: res.Cycles, Stats: res.Stats}, nil
		},
	}
}

// transCache returns the translation cache one sweep uses. On disk, each
// sweep opens a fresh handle, which reads every document from disk the
// way a new `gbbench -tcache-dir` process does.
func (w matrixWorkload) transCache(env *matrixEnv) *tcache.Cache {
	switch w.cache {
	case memCache:
		return env.mem
	case diskCache:
		return tcache.New(env.dir)
	}
	return nil
}

// sweep runs every cell once and returns each cell's outputs and the
// host time in ms the Runner measured for it.
func (w matrixWorkload) sweep(env *matrixEnv, tc *tcache.Cache) (map[string]cellOut, map[string]float64, error) {
	r := &harness.Runner{Workers: 1, Artifacts: env.arts, TransCache: tc}
	rows, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(), w.benches(), w.modes)
	out, hostMS := map[string]cellOut{}, map[string]float64{}
	for _, row := range rows {
		for mode, c := range row.Cycles {
			key := row.Name + "|" + mode.String()
			out[key] = cellOut{c, row.Stats[mode]}
			hostMS[key] = float64(row.HostNS[mode]) / 1e6
		}
	}
	return out, hostMS, err
}

// setup builds a fresh environment: the artifacts, and the translation
// cache filled by a warm-up sweep. On disk the warm-up sweep is the
// cache's write path.
func (w matrixWorkload) setup(o options, i int) (*matrixEnv, error) {
	env := &matrixEnv{arts: harness.NewArtifacts()}
	switch w.cache {
	case memCache:
		env.mem = tcache.New("")
	case diskCache:
		env.dir = filepath.Join(o.scratch, fmt.Sprintf("tcache-%d", i))
		if err := os.RemoveAll(env.dir); err != nil {
			return nil, err
		}
	}
	tc := w.transCache(env)
	ref, _, err := w.sweep(env, tc)
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	if tc != nil {
		if err := tc.Err(); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	env.ref = ref
	return env, nil
}

func (w matrixWorkload) cells() int { return (len(polybench.All()) + len(pocVariants)) * len(w.modes) }

// run sets the workload up, then sweeps until the measured phase is
// over. A traced run follows every untraced sweep with a traced one.
func (w matrixWorkload) run(o options) (*result, error) {
	res := newResult()
	var env *matrixEnv
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		e, err := w.setup(o, i)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if env != nil && env.dir != "" {
			os.RemoveAll(env.dir)
		}
		env = e
	}
	res.put("setup_s", median(setupS), "s")
	checkExpected(res, env.ref, o.expected)

	var (
		walls, tracedWalls []float64
		cellMS             = map[string][]float64{} // each cell's host time in every timed sweep
		layers             []map[string]float64
		allocB, allocN     uint64
		timed              map[string]cellOut // the first timed sweep
	)
	for start := time.Now(); len(walls) == 0 || time.Since(start) < o.seconds; {
		tc := w.transCache(env)
		b0, n0 := heapAllocs()
		t0 := time.Now()
		got, hostMS, err := w.sweep(env, tc)
		wall := time.Since(t0)
		b1, n1 := heapAllocs()
		walls = append(walls, ms(wall))
		allocB += b1 - b0
		allocN += n1 - n0
		for key, t := range hostMS {
			cellMS[key] = append(cellMS[key], t)
		}
		what := fmt.Sprintf("timed sweep %d", len(walls))
		w.account(res, what, got, err)
		if timed == nil {
			timed = got
			res.failed += compareCells(res, what+" vs warm-up", got, env.ref, false)
		} else {
			res.failed += compareCells(res, what, got, timed, true)
		}
		w.checkWarm(res, what, got)

		if !o.trace {
			continue
		}
		gen := newLedger()
		arts, err := generateKernels(gen, env.arts, 0)
		if err != nil {
			return nil, err
		}
		led := newLedger()
		t0 = time.Now()
		got, err = w.tracedSweep(led, env, arts)
		wall = time.Since(t0)
		what = fmt.Sprintf("traced sweep %d", len(tracedWalls)+1)
		w.account(res, what, got, err)
		res.failed += compareCells(res, what+" vs timed sweep 1", got, timed, true)
		w.checkWarm(res, what, got)
		tracedWalls = append(tracedWalls, ms(wall))
		v := led.layerValues(wall.Nanoseconds(), 1)
		for k, x := range gen.genValues() {
			v[k] = x
		}
		layers = append(layers, v)
	}

	n := float64(len(walls))
	putLatency(res, walls)
	// The fast end is read cell by cell: each cell's fastest time, summed
	// over the sweep. On a shared host every sweep runs up to twice as
	// slow for minutes at a time, and a run that spends most of its
	// sweeps slow still gives each cell a few uncontended moments.
	var fast float64
	for _, t := range cellMS {
		fast += slices.Min(t)
	}
	res.put("op_fast_ms", fast, "ms")
	res.put("alloc_mb_per_op", float64(allocB)/1e6/n, "MB")
	res.put("mallocs_per_op", float64(allocN)/n, "count")
	if o.trace {
		for _, name := range sortedKeys(layers[0]) {
			vals := make([]float64, len(layers))
			for i, l := range layers {
				vals[i] = l[name]
			}
			res.put(name, median(vals), layerUnit(name))
		}
		res.put("trace.overhead_frac", median(tracedWalls)/median(walls)-1, "ratio")
		mb, err := dirMB(env.dir)
		if err != nil {
			return nil, err
		}
		res.put("tcache.doc_mb", mb, "MB")
	}
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
	return res, nil
}

// tracedSweep runs one sweep's cells in the Runner's order, one layer
// call at a time.
func (w matrixWorkload) tracedSweep(l *ledger, env *matrixEnv, arts map[string]*kernelArt) (map[string]cellOut, error) {
	base := dbt.DefaultConfig()
	// harness.Runner hands every machine a cancellable context's Done
	// channel, which the dispatch loop polls; so does the traced pass.
	base.Interrupt = make(chan struct{})
	base.TransCache = w.transCache(env)
	out := map[string]cellOut{}
	for _, k := range polybench.All() {
		for _, mode := range w.modes {
			cfg := base
			cfg.Mitigation = mode
			c, err := l.kernelCell(cfg, arts[k.Name])
			if err != nil {
				return out, err
			}
			out[k.Name+"|"+mode.String()] = c
		}
	}
	for _, v := range pocVariants {
		for _, mode := range w.modes {
			cfg := base
			cfg.Mitigation = mode
			c, err := l.attackCell(v, cfg, fig4Secret)
			if err != nil {
				return out, err
			}
			out[v.String()+"|"+mode.String()] = c
		}
	}
	return out, nil
}

// generateKernels generates every polybench kernel at size n (0 = its
// paper size) into l.
func generateKernels(l *ledger, arts *harness.Artifacts, n int) (map[string]*kernelArt, error) {
	out := map[string]*kernelArt{}
	for _, k := range polybench.All() {
		a, err := l.generate(k, n, arts)
		if err != nil {
			return nil, err
		}
		out[k.Name] = a
	}
	return out, nil
}

// account counts a sweep's cells as attempted and its missing cells as
// failed.
func (w matrixWorkload) account(res *result, what string, got map[string]cellOut, err error) {
	res.attempted += w.cells()
	if missing := w.cells() - len(got); missing > 0 {
		res.failed += missing
		res.fail("%s: %d cells failed: %v", what, missing, err)
	}
}

// checkWarm asserts that a sweep over a filled translation cache
// translated nothing: every region came from the cache.
func (w matrixWorkload) checkWarm(res *result, what string, got map[string]cellOut) {
	if w.cache == noCache {
		return
	}
	var misses, translations int
	for _, c := range got {
		misses += c.stats.TCacheMisses
		translations += c.stats.Translations
	}
	if misses != 0 || translations != 0 {
		res.fail("%s ran cold: %d tcache misses, %d translations", what, misses, translations)
	}
}

// checkExpected compares every Figure 4 cell's simulated cycles with
// BENCH_fig4.json.
func checkExpected(res *result, got map[string]cellOut, expected map[string]uint64) {
	var total uint64
	for _, key := range sortedKeys(expected) {
		c, ok := got[key]
		switch {
		case !ok:
			res.fail("expected cycles: %s was not measured", key)
		case c.cycles != expected[key]:
			res.fail("expected cycles: %s ran %d simulated cycles, BENCH_fig4.json has %d", key, c.cycles, expected[key])
		}
		total += c.cycles
	}
	res.info["fig4_sim_cycles"] = float64(total)
}

// compareCells checks got against want cell by cell, records every
// difference as a failed check and returns how many cells differ.
// Unless exact, the translation-cache counters are not compared: a warm
// cell differs from the cold run that filled the cache only in them.
func compareCells(res *result, what string, got, want map[string]cellOut, exact bool) int {
	bad := 0
	for _, key := range sortedKeys(want) {
		g, ok := got[key]
		if !ok {
			continue // counted by account
		}
		w := want[key]
		gs, ws := g.stats, w.stats
		if !exact {
			for _, s := range []*dbt.Stats{&gs, &ws} {
				s.Translations, s.TCacheHits, s.TCacheMisses = 0, 0, 0
			}
		}
		if g.cycles != w.cycles || gs != ws {
			bad++
			res.fail("%s: %s differs: %d simulated cycles, want %d; stats %+v, want %+v",
				what, key, g.cycles, w.cycles, gs, ws)
		}
	}
	return bad
}

// dirMB is the size of the files under dir in MB; 0 when dir is "".
func dirMB(dir string) (float64, error) {
	if dir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / 1e6, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// putLatency records an operation-latency sample as information: its
// size, its median and its tail, the highest quantile with at least ten
// samples beyond it. Neither is a declared metric: on a shared host
// their run-to-run spread is wider than any bound they could be given.
func putLatency(res *result, ms []float64) {
	q := tailQuantile(len(ms))
	res.info["ops"] = float64(len(ms))
	res.info["op_p50_ms"] = median(ms)
	res.info["op_tail_ms"] = percentile(ms, q)
	res.info["op_tail_quantile"] = q
	res.latencies = ms
}
