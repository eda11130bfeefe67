package dbt

import (
	"ghostbusters/internal/obs"
	"ghostbusters/internal/trap"
)

// Snapshot flattens the run's counters into the unified metrics map of
// the observability layer. The names are the stable contract shared by
// `gbrun -stats -json` and the `metrics` field of gbbench's perf JSON
// (see obs.Snapshot): never rename or repurpose one — add a new name
// instead. Trap counters appear as "trap.<kind>" and only when
// non-zero; every other metric is always present.
func (s Stats) Snapshot(cycles uint64) obs.Snapshot {
	snap := obs.Snapshot{
		"sim.cycles":  cycles,
		"sim.instret": s.Instret,

		"interp.insts": s.InterpInsts,

		"dbt.blocks":            uint64(s.Blocks),
		"dbt.traces":            uint64(s.Traces),
		"dbt.block_execs":       s.BlockExecs,
		"dbt.compile_errors":    uint64(s.CompileErrs),
		"dbt.translations":      uint64(s.Translations),
		"dbt.smc_invalidations": s.SMCInvalidations,

		"tcache.hits":   uint64(s.TCacheHits),
		"tcache.misses": uint64(s.TCacheMisses),

		"core.bundles":       s.Bundles,
		"core.side_exits":    s.SideExits,
		"core.recoveries":    s.Recoveries,
		"core.spec_loads":    s.SpecLoads,
		"core.spec_squashes": s.SpecSquash,

		"mitigation.static_spec_loads": uint64(s.StaticSpecLoads),
		"mitigation.patterns_found":    uint64(s.PatternsFound),
		"mitigation.risky_loads":       uint64(s.RiskyLoads),
		"mitigation.guard_edges":       uint64(s.GuardEdges),

		"cache.hits":    s.Cache.Hits,
		"cache.misses":  s.Cache.Misses,
		"cache.flushes": s.Cache.Flushes,

		"predecode.hits":          s.Pred.Hits,
		"predecode.fills":         s.Pred.Fills,
		"predecode.bypasses":      s.Pred.Bypasses,
		"predecode.invalidations": s.Pred.Invalidations,
	}
	for k, n := range s.Traps {
		if n != 0 {
			snap["trap."+trap.Kind(k).String()] = n
		}
	}
	return snap
}

// Snapshot returns the run's unified metrics view (see Stats.Snapshot).
func (r *Result) Snapshot() obs.Snapshot { return r.Stats.Snapshot(r.Cycles) }
