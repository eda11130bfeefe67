package dbt

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/core"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/trap"
	"ghostbusters/internal/vliw"
)

// Config describes a complete DBT-based processor instance.
type Config struct {
	Mitigation core.Mode
	Cache      cache.Config
	Core       vliw.Config
	Interp     riscv.Timing

	MemBase uint64
	MemSize uint64

	// HotThreshold executions of a block entry trigger first-pass
	// translation; TraceThreshold executions trigger superblock/trace
	// construction along branches whose bias reaches biasThreshold.
	// Translation is free in guest cycles: Hybrid-DBT runs the DBT
	// engine on dedicated hardware concurrently with execution.
	HotThreshold   uint64
	TraceThreshold uint64

	MaxTraceInsts int
	MaxUnroll     int

	DisableTranslation bool // pure interpreter (debugging/reference)
	DisableTraces      bool // first-pass blocks only

	// DisableChaining turns off the chain links: every transfer between
	// translated regions then finds its successor's record by a map
	// lookup instead of the links cached on the region it leaves. The
	// links are a pure host-side accelerator — guest-visible behaviour
	// (cycle counts, results, trace events, trap identity) is identical
	// either way, and the differential tests assert it.
	DisableChaining bool

	// TransCache, when non-nil, is the persistent translation cache:
	// compiled regions are looked up before invoking the DBT engine and
	// recorded after fresh compilations, keyed by guest image, run
	// inputs (TCacheSalt), mitigation mode and the full machine
	// configuration. Correct by the simulator's determinism — a cached
	// region installs at exactly the profiling instant a fresh
	// translation would have, with the same cycle charge and report —
	// so guest-visible behaviour is bit-identical with or without it.
	// The machine ignores the cache whenever that premise is at risk:
	// fault injection, Audit, VerifyEncoding, DisableTranslation, and
	// (mid-run) guest stores into its own text.
	TransCache *tcache.Cache

	// TCacheSalt folds run identity living outside the guest image into
	// the translation-cache key — the harness hashes the input arrays it
	// writes into guest memory after load, since they steer profiling
	// and therefore trace formation. Ignored without TransCache.
	TCacheSalt string

	// DisablePredecode turns off the interpreter's decoded-instruction
	// side table, forcing a fetch+decode on every interpreted
	// instruction. The table is purely a host-side accelerator —
	// guest-visible behaviour (cycle counts, results, attack outcomes)
	// is identical either way, and the differential tests assert it.
	DisablePredecode bool

	// MaxCycles aborts runaway guests. 0 means no limit. Exhaustion is a
	// CycleBudgetExceeded trap carrying the PC and cycle count.
	MaxCycles uint64

	// StrictAlign makes architectural data accesses fault on natural-
	// alignment violations (MisalignedAccess). Off by default: the
	// paper's machines handle unaligned data accesses in hardware, and
	// its Spectre v4 guest performs one. Instruction fetch is always
	// 4-byte aligned regardless.
	StrictAlign bool

	// FaultInject, when non-nil, enables the deterministic fault-
	// injection layer (see FaultInject). Injected faults are marked
	// Transient so harness retries can distinguish them from real ones.
	FaultInject *FaultInject

	// Interrupt, when non-nil, is polled by the dispatch loop; once the
	// channel is closed (or receives), Run aborts with ErrInterrupted.
	// The experiment harness wires a context.Context's Done channel here
	// to give every run a wall-clock guard on top of the MaxCycles guest
	// cycle budget.
	Interrupt <-chan struct{}

	// Tracer, when non-nil, receives typed trace events for the whole
	// run — translation, block dispatch, interp transitions,
	// speculation, cache flushes, traps — timestamped in simulated
	// cycles (see internal/obs). The tracer level selects density:
	// obs.LevelBlock for block-granularity events, obs.LevelSpec to add
	// per-speculative-load issue/squash/recovery events. A nil tracer
	// costs nothing on the hot paths (pinned at 0 allocs/op by tests).
	// Tracers are single-threaded: never share one across the parallel
	// cells of an experiment Runner.
	Tracer *obs.Tracer

	// VerifyEncoding round-trips every translated block through the
	// binary VLIW encoding the disk cache stores (the dense form plus
	// its GuestPCs) and executes the decoded form — an integrity check
	// that the code cache contents are fully representable in the
	// target ISA (debug builds; small translation-time cost).
	VerifyEncoding bool

	// Audit collects the leakage audit layer's per-block poison
	// provenance: for every pinned access, the chain from the source
	// speculative load through the data flow to the guards it was
	// anchored to (see ir.AuditReport). Translation-time only — the
	// execution hot paths are untouched — and gated like tracing:
	// disabled auditing costs a single branch per translation and is
	// pinned at 0 allocs/op on the run path. Retrieve with
	// Machine.Audit after (or during) a run.
	Audit bool
}

// DefaultConfig returns the standard machine: 4-issue VLIW, 16 KiB data
// cache, GhostBusters disabled (unsafe baseline).
func DefaultConfig() Config {
	return Config{
		Mitigation:     core.ModeUnsafe,
		Cache:          cache.DefaultConfig(),
		Core:           vliw.DefaultConfig(),
		Interp:         riscv.DefaultTiming(),
		MemBase:        0x10000,
		MemSize:        16 << 20,
		HotThreshold:   10,
		TraceThreshold: 30,
		MaxTraceInsts:  48,
		MaxUnroll:      4,
		MaxCycles:      4_000_000_000,
	}
}

// Stats aggregates machine counters.
type Stats struct {
	InterpInsts uint64
	BlockExecs  uint64
	Blocks      int // first-pass translations
	Traces      int
	CompileErrs int

	// Translations counts fresh compilations by this machine's own DBT
	// engine. It stays behind Blocks+Traces when regions were installed
	// from a persistent translation cache instead of being compiled — a
	// fully warm run reports 0.
	Translations int

	// TCacheHits / TCacheMisses count persistent-translation-cache
	// probes (zero when no cache is configured).
	TCacheHits   int
	TCacheMisses int

	// SMCInvalidations counts translated regions dropped because a
	// guest store overwrote code they cover (self-modifying code).
	SMCInvalidations uint64

	// From the VLIW core.
	Bundles    uint64
	SideExits  uint64
	Recoveries uint64
	SpecLoads  uint64
	SpecSquash uint64

	// Aggregated mitigation reports (static, per translated block).
	StaticSpecLoads int
	PatternsFound   int
	RiskyLoads      int
	GuardEdges      int

	// Traps counts every fault raised during the run by kind — both
	// survivable ones (injected translation failures the machine rode
	// out by staying in the interpreter) and the terminal one, if any.
	Traps trap.Counts

	// Instret is the total guest instructions retired (interpreted plus
	// translated), duplicated from Result.Instret so Stats alone can
	// produce a complete metrics Snapshot.
	Instret uint64

	// Cache and Pred capture the memory-system and interpreter
	// side-table counters at run end, so the unified Snapshot covers
	// every subsystem from one value.
	Cache cache.Stats
	Pred  riscv.PredecodeStats
}

// Result reports a finished guest run.
type Result struct {
	Exit    riscv.Event
	Cycles  uint64
	Instret uint64
	Stats   Stats
}

// transEntry is one installed region: the record the persistent
// translation cache stores (shape, guest text extent, static mitigation
// report, compiled block) plus the dynamic state this machine keeps.
type transEntry struct {
	tcache.Region

	// Direct-chaining link cache: the records of this region's
	// successors, added on the first transfer to each (see chain.go).
	links      [chainLinks]chainLink
	linkVictim uint8

	// Cycle-attributed profile, maintained on every dispatch (cheap:
	// a handful of counter subtractions against the core's totals).
	// A trace upgrade replaces the entry and restarts the counters —
	// the profile describes the code currently installed.
	execs     uint64 // dispatches that exited cleanly
	recov     uint64 // MCB recoveries in those dispatches
	cycles    uint64 // simulated cycles spent inside this region
	bundles   uint64 // bundles executed
	sideExits uint64
	specLoads uint64 // speculative loads issued (Region.SpecLoads is the static count)
	squashes  uint64

	// transNS is the host-side latency of producing and installing the
	// region (compilation or cache lookup).
	transNS int64

	// Audit retention (Config.Audit only): the provenance report and
	// the mitigated IR block it replays against. Trace upgrades
	// replace the whole entry, so the audit always describes
	// the code currently installed at this PC.
	audit   *ir.AuditReport
	auditIR *ir.Block
}

// kind names the region's shape in trace events.
func (e *transEntry) kind() string {
	if e.Trace {
		return "trace"
	}
	return "block"
}

type brStat struct{ taken, total uint64 }

// Machine is the DBT-based processor: guest memory and data cache shared
// between the software interpreter (cold code, profiling) and the VLIW
// core (translated code), plus the translation cache.
type Machine struct {
	*transState // guest image, maps and compile memory; see Release

	cfg   Config
	b     *bus.Bus
	core  *vliw.Core
	state riscv.State
	vregs [vliw.NumRegs]uint64

	// pred caches decoded instructions for the interpreter over the
	// loaded program's text; nil when disabled or before Load. Guest
	// stores invalidate overlapping entries via the bus store hook.
	pred *riscv.Predecode

	cycles uint64

	// transLo/transHi bound the guest text covered by any translated
	// region, so the store hook can reject non-code stores with two
	// compares.
	transLo uint64
	transHi uint64

	// poll counts transfers since the last Interrupt poll and cycleCap
	// is MaxCycles, or the largest count when unlimited (see guard).
	poll     int
	cycleCap uint64

	// tcr is this run's view of the persistent translation cache (nil
	// when no cache is configured or the run is ineligible). A guest
	// store into [textLo, textHi) — self-modifying code — abandons it:
	// cached regions describe the original image. textLo/textHi is the
	// loaded program's text extent.
	tcr    *tcache.Run
	textLo uint64
	textHi uint64

	inj *injector

	// tr is the observability tracer (nil when tracing is off);
	// wasTrans tracks the last dispatch mode so translated→interpreter
	// transitions can be traced.
	tr       *obs.Tracer
	wasTrans bool

	// transHostNS accumulates host wall-clock nanoseconds spent
	// translating regions installed on this machine. It lives outside
	// Stats deliberately: Stats is compared by struct equality in
	// determinism tests, and host time is nondeterministic.
	transHostNS int64

	stats Stats
}

// New builds a machine; the configuration is validated eagerly.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Cache.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.MemSize == 0 {
		return nil, fmt.Errorf("dbt: MemSize must be positive")
	}
	if !cfg.Mitigation.Valid() {
		return nil, fmt.Errorf("dbt: unknown mitigation mode %v", cfg.Mitigation)
	}
	ts := takeSpare(cfg.MemBase, cfg.MemSize)
	ts.mem.StrictAlign = cfg.StrictAlign
	ts.dcache.Reset(cfg.Cache)
	ts.vcore.Reset(cfg.Core)
	ts.membus = bus.Bus{Mem: ts.mem, DC: &ts.dcache}
	m := &Machine{
		transState: ts,
		cfg:        cfg,
		b:          &ts.membus,
		core:       &ts.vcore,
		transLo:    ^uint64(0),
	}
	ts.owner = m
	if cfg.FaultInject.enabled() {
		m.inj = newInjector(*cfg.FaultInject)
		m.b.OnAccess = m.inj.busHook(m)
	}
	if cfg.Tracer.BlockOn() {
		m.tr = cfg.Tracer
		m.core.Tracer = cfg.Tracer
		// Cache flushes (the attacker's half of the side channel) are
		// observed at the cache itself; the closure supplies the cycle
		// timestamp the cache cannot know. m.cycles is live even inside
		// translated blocks: the core advances it through a pointer.
		m.b.DC.OnFlush = func(addr uint64, lines int, all bool) {
			var allArg uint64
			if all {
				allArg = 1
			}
			m.tr.Emit(obs.Event{Kind: obs.EvCacheFlush, Cycle: m.cycles,
				Arg1: uint64(lines), Arg2: allArg, Arg3: addr})
		}
	}
	return m, nil
}

// Mem exposes guest memory (test setup, result extraction).
func (m *Machine) Mem() *guestmem.Memory { return m.mem }

// Bus exposes the memory system (cache inspection in tests).
func (m *Machine) Bus() *bus.Bus { return m.b }

// Cycles returns the current cycle counter.
func (m *Machine) Cycles() uint64 { return m.cycles }

// TranslateHostNS returns the host wall-clock nanoseconds spent
// translating the regions installed on this machine — the
// translate-vs-execute split the harness attributes to each cell's
// host span. Kept off Stats so run results stay comparable by
// struct equality.
func (m *Machine) TranslateHostNS() int64 { return m.transHostNS }

// State returns the architectural register state (for inspection).
func (m *Machine) State() *riscv.State { return &m.state }

// Load places an assembled program into guest memory and points the PC
// at its entry. The stack pointer is set to the top of memory. Unless
// disabled, a predecode table is set up over the text region and wired
// to the bus store hook, so self-modifying code invalidates stale
// entries no matter which execution mode issued the store.
func (m *Machine) Load(p *riscv.Program) error {
	for i, w := range p.Text {
		if err := m.mem.Write(p.TextBase+uint64(4*i), 4, uint64(w)); err != nil {
			return fmt.Errorf("dbt: loading text: %w", err)
		}
	}
	if len(p.Data) > 0 {
		if err := m.mem.WriteBytes(p.DataBase, p.Data); err != nil {
			return fmt.Errorf("dbt: loading data: %w", err)
		}
	}
	if !m.cfg.DisablePredecode {
		m.predTab.Reset(p.TextBase, len(p.Text))
		m.pred = &m.predTab
	}
	// The store hook serves two invalidation duties: interpreter
	// predecode entries and translated regions. It is wired even with
	// predecode disabled — translated code must never survive the guest
	// overwriting it.
	m.b.OnStore = m.storeHook
	m.textLo = p.TextBase
	m.textHi = p.TextBase + uint64(4*len(p.Text))
	if m.cfg.TransCache != nil && m.tcacheEligible() {
		m.openTransCache(p)
	}
	m.state = riscv.State{PC: p.Entry}
	m.state.X[2] = m.mem.Top() - 64 // sp
	return nil
}

// tcacheEligible reports whether this run may use the translation
// cache: anything that perturbs or observes the translation process
// itself (fault injection, auditing, encode-verification) opts out, as
// does a machine that never translates.
func (m *Machine) tcacheEligible() bool {
	return !m.cfg.DisableTranslation && !m.cfg.Audit &&
		!m.cfg.VerifyEncoding && m.inj == nil
}

// openTransCache opens the run's view of the translation cache under
// the key of p and the machine's configuration. Once the key's store
// exists it allocates nothing: p memoises its digest, and the
// fingerprint buffer and the run view belong to the machine's reused
// translation state.
func (m *Machine) openTransCache(p *riscv.Program) {
	m.fp = m.cfg.appendFingerprint(m.fp[:0])
	m.cfg.TransCache.Open(&m.tcRun, tcache.Key{
		Image:       p.Digest(),
		Mode:        m.cfg.Mitigation.String(),
		Fingerprint: m.fp,
		Salt:        m.cfg.TCacheSalt,
	})
	m.tcr = &m.tcRun
}

// appendFingerprint appends to b every configuration field that can
// influence translation output or the run's translation schedule, as
// "name=value" pairs: core geometry, cache model, interpreter timing,
// thresholds, mitigation knobs. A config change can then never be
// served stale code. The runtime hooks (Tracer, Interrupt, FaultInject,
// the TransCache handle itself) are left out, and so is TCacheSalt,
// which the key carries on its own. TestFingerprintCoversConfig fails
// when a Config field is neither written here nor named as left out.
func (c *Config) appendFingerprint(b []byte) []byte {
	w := fpWriter{b}
	w.uint("Mitigation", uint64(c.Mitigation))
	w.int("Cache.Sets", int64(c.Cache.Sets))
	w.int("Cache.Ways", int64(c.Cache.Ways))
	w.uint("Cache.LineSize", c.Cache.LineSize)
	w.uint("Cache.HitLatency", c.Cache.HitLatency)
	w.uint("Cache.MissPenalty", c.Cache.MissPenalty)
	w.int("len(Core.Slots)", int64(len(c.Core.Slots)))
	for _, s := range c.Core.Slots {
		w.uint("Core.Slot", uint64(s))
	}
	w.uint("Core.LatALU", c.Core.LatALU)
	w.uint("Core.LatMul", c.Core.LatMul)
	w.uint("Core.LatDiv", c.Core.LatDiv)
	w.uint("Core.LatLoad", c.Core.LatLoad)
	w.uint("Core.ExitPenalty", c.Core.ExitPenalty)
	w.uint("Core.RecoveryPenalty", c.Core.RecoveryPenalty)
	w.uint("Interp.BaseCPI", c.Interp.BaseCPI)
	w.uint("Interp.MulExtra", c.Interp.MulExtra)
	w.uint("Interp.DivExtra", c.Interp.DivExtra)
	w.uint("MemBase", c.MemBase)
	w.uint("MemSize", c.MemSize)
	w.uint("HotThreshold", c.HotThreshold)
	w.uint("TraceThreshold", c.TraceThreshold)
	w.int("MaxTraceInsts", int64(c.MaxTraceInsts))
	w.int("MaxUnroll", int64(c.MaxUnroll))
	w.bool("DisableTranslation", c.DisableTranslation)
	w.bool("DisableTraces", c.DisableTraces)
	w.bool("DisableChaining", c.DisableChaining)
	w.bool("DisablePredecode", c.DisablePredecode)
	w.uint("MaxCycles", c.MaxCycles)
	w.bool("StrictAlign", c.StrictAlign)
	w.bool("VerifyEncoding", c.VerifyEncoding)
	w.bool("Audit", c.Audit)
	return w.b
}

// fpWriter appends space-separated "name=value" pairs.
type fpWriter struct{ b []byte }

func (w *fpWriter) name(name string) {
	if len(w.b) > 0 {
		w.b = append(w.b, ' ')
	}
	w.b = append(append(w.b, name...), '=')
}

func (w *fpWriter) uint(name string, v uint64) {
	w.name(name)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *fpWriter) int(name string, v int64) {
	w.name(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *fpWriter) bool(name string, v bool) {
	w.name(name)
	w.b = strconv.AppendBool(w.b, v)
}

// Release puts the machine's guest image, translation state, parts
// (bus, data cache, core, predecode table) and code arena back on the
// spare list, each reset to how a fresh one starts, for the next New of
// the same geometry. Call it once all results have been read out of the
// machine; the machine (including Mem and Bus) and every block BlockAt
// returned must not be used afterwards: the next machine builds its own
// blocks in their memory (Block.Clone keeps one).
// Release is idempotent, and skipping it is always safe: the set is then
// collected by the GC instead of being reused.
func (m *Machine) Release() {
	ts := m.transState
	if ts == nil {
		return
	}
	m.transState, m.b, m.core, m.pred, m.tcr = nil, nil, nil, nil, nil
	ts.reset()
	spares.Lock()
	spares.sets = append(spares.sets, ts)
	spares.Unlock()
}

// PredecodeStats reports the interpreter side-table counters (zero when
// the table is disabled).
func (m *Machine) PredecodeStats() riscv.PredecodeStats {
	return m.pred.Stats()
}

// A trace follows a branch whose profiled bias reaches biasThreshold
// over at least minBranchProfile executions. minBranchProfile must stay
// below the default HotThreshold: branches stop being interpreted (and
// profiled) once their block is translated.
const (
	biasThreshold    = 0.9
	minBranchProfile = 8
)

// oracle reports the biased direction of a profiled branch.
func (m *Machine) oracle(pc uint64) (taken, follow bool) {
	ps := m.pcs[pc]
	if ps == nil || ps.br.total < minBranchProfile {
		return false, false
	}
	bias := float64(ps.br.taken) / float64(ps.br.total)
	if bias >= biasThreshold {
		return true, true
	}
	if 1-bias >= biasThreshold {
		return false, true
	}
	return false, false
}

// onEnter profiles a block entry from the interpreter and triggers
// translation when the thresholds are crossed; follow does the same for
// transfers between translated regions.
func (m *Machine) onEnter(pc uint64) {
	if m.cfg.DisableTranslation {
		return
	}
	ps := m.record(pc)
	if ps.bad {
		return
	}
	ps.entries++
	if asTrace, due := m.promotion(ps.e, ps.entries); due {
		m.translateWith(pc, asTrace)
	}
}

// promotion applies the translation thresholds to the c-th profiled
// entry of a PC whose installed region is e (nil when the PC is
// interpreted): a hot entry is due its first-pass block, a hotter one
// its trace. Both the outer dispatch loop (through onEnter) and chained
// transfers (through follow) decide here.
func (m *Machine) promotion(e *transEntry, c uint64) (asTrace, due bool) {
	if e == nil {
		return false, c >= m.cfg.HotThreshold
	}
	return true, !e.Trace && !m.cfg.DisableTraces && c >= m.cfg.TraceThreshold
}

// transFail records a failed translation attempt at pc as a
// TranslationFailure trap and degrades to interpretation. Real failures
// blacklist the entry point (the region stays interpreted for good);
// injected ones are transient, so the entry stays eligible and a later
// hot-threshold crossing retries the translation.
func (m *Machine) transFail(pc uint64, injected bool, cause error) {
	f := trap.Newf(trap.TranslationFailure, "translation of region %#x failed", pc)
	if cause != nil {
		f.Detail += ": " + cause.Error()
	}
	f.PC = pc
	f.Block = pc
	f.Cycle = m.cycles
	f.Injected = injected
	m.stats.Traps.Record(f.Kind)
	if m.tr.BlockOn() {
		m.tr.Emit(obs.Event{Kind: obs.EvTranslateFail, Cycle: m.cycles, PC: pc, Str: f.Detail})
	}
	if !injected {
		m.record(pc).bad = true
	}
}

// translateWith produces the region at pc in the requested shape — from
// the persistent translation cache when it holds one, from the DBT
// engine otherwise — and installs it. Only a fresh compilation counts
// as a translation and is recorded for publication.
func (m *Machine) translateWith(pc uint64, asTrace bool) {
	if m.inj.translationFailure() {
		m.transFail(pc, true, nil)
		return
	}
	if m.tr.BlockOn() {
		var tr uint64
		if asTrace {
			tr = 1
		}
		m.tr.Emit(obs.Event{Kind: obs.EvTranslateStart, Cycle: m.cycles, PC: pc, Arg1: tr})
	}
	t0 := time.Now() // host latency; never charged to the guest clock
	if m.tcr != nil {
		if rg := m.tcr.Lookup(pc, asTrace); rg != nil {
			m.stats.TCacheHits++
			e := m.regions.next()
			e.Region = *rg
			rg.Block.Prepare() // shared with other machines: its table stays on the heap
			m.install(e, t0)
			return
		}
		m.stats.TCacheMisses++
	}
	e := m.compile(pc, asTrace)
	if e == nil {
		return
	}
	m.install(e, t0)
	m.stats.Translations++
	if m.tcr != nil {
		// Record a copy: a pointer into the entry would let the shared
		// store keep this machine's chain links, and through them its
		// records and other entries, alive. The block lives in the
		// machine's arena until Release, so the store gets a heap clone,
		// dispatch table included.
		rg := e.Region
		rg.Block = rg.Block.Clone()
		m.tcr.Record(&rg)
	}
}

// maxBlockInsts bounds a first-pass basic block; Config.MaxTraceInsts
// bounds traces only.
const maxBlockInsts = 48

// frontEnd translates the guest code at pc into IR the way the DBT
// engine does for the given shape: a trace follows the branch profile
// up to MaxTraceInsts, a basic block stops at its first branch or at
// maxBlockInsts. It builds the IR in bu and returns it with the guest
// instructions covered.
func (m *Machine) frontEnd(bu *ir.Builder, pc uint64, asTrace bool) (*ir.Block, int, error) {
	lim := translateLimits{MaxInsts: maxBlockInsts, MaxUnroll: m.cfg.MaxUnroll}
	var orc branchOracle
	if asTrace {
		lim.MaxInsts = m.cfg.MaxTraceInsts
		orc = m.oracle
	}
	return translate(bu, m.visited, m.b, pc, orc, lim)
}

// compile runs the DBT engine on the region at pc: front end, the
// mitigation pipeline, scheduling and codegen, all through the
// machine's reused compile memory (transState), and builds the block in
// the machine's arena, so that it allocates nothing once the memory
// and the arena have grown. The audit keeps the mitigated IR block, so
// with Config.Audit the front end builds it in a builder of its own. A failure is recorded (transFail) and yields
// nil.
func (m *Machine) compile(pc uint64, asTrace bool) *transEntry {
	bu := &m.front
	if m.cfg.Audit {
		bu = new(ir.Builder)
	}
	irBlk, guestInsts, err := m.frontEnd(bu, pc, asTrace)
	if err != nil {
		m.transFail(pc, false, err)
		return nil
	}
	res, err := compileWith(&m.sched, &m.mitigate, irBlk, guestInsts, &m.cfg.Core, m.cfg.Mitigation, m.cfg.Audit)
	if err != nil {
		m.stats.CompileErrs++
		m.transFail(pc, false, err)
		return nil
	}
	blk := res.Block
	if m.cfg.VerifyEncoding {
		// Execute the decoded form: the encoding is live. The codec is
		// the lossless one the disk cache uses, so fault PCs and the SMC
		// extent below come from the decoded block's GuestPCs.
		data, err := vliw.AppendBlock(nil, blk)
		if err == nil {
			blk, _, err = vliw.ConsumeBlock(data)
		}
		if err != nil {
			m.stats.CompileErrs++
			m.transFail(pc, false, err)
			return nil
		}
		blk.Prepare() // the decoded block is on the heap, and so is its table
	}
	lo, hi := blockExtent(blk)
	e := m.regions.next()
	*e = transEntry{
		Region: tcache.Region{
			PC: pc, Trace: asTrace,
			Lo: lo, Hi: hi,
			SpecLoads:  res.Report.SpeculativeLoads,
			RiskyLoads: len(res.Report.RiskyLoads),
			GuardEdges: res.Report.GuardEdges,
			Pattern:    res.Report.PatternFound(),
			Block:      blk,
		},
		audit:   res.Audit,
		auditIR: res.AuditIR,
	}
	return e
}

// install is the one way a region enters the translation cache, fresh
// compilation and persistent-cache hit alike, so both land with the same
// statistics and trace events. t0 is when the
// translation request started.
func (m *Machine) install(e *transEntry, t0 time.Time) {
	blk := e.Block
	m.code.Prepare(blk) // build the threaded-dispatch table off the hot path
	e.transNS = time.Since(t0).Nanoseconds()
	m.transHostNS += e.transNS
	m.record(e.PC).e = e
	if e.Lo < m.transLo {
		m.transLo = e.Lo
	}
	if e.Hi > m.transHi {
		m.transHi = e.Hi
	}
	if e.Trace {
		m.stats.Traces++
	} else {
		m.stats.Blocks++
	}
	m.stats.StaticSpecLoads += e.SpecLoads
	if e.Pattern {
		m.stats.PatternsFound++
	}
	m.stats.RiskyLoads += e.RiskyLoads
	m.stats.GuardEdges += e.GuardEdges
	if m.tr.BlockOn() {
		m.tr.Emit(obs.Event{Kind: obs.EvMitigation, Cycle: m.cycles, PC: e.PC,
			Arg1: uint64(e.SpecLoads),
			Arg2: uint64(e.RiskyLoads),
			Arg3: uint64(e.GuardEdges)})
		m.tr.Emit(obs.Event{Kind: obs.EvTranslateDone, Cycle: m.cycles, PC: e.PC,
			Arg1: uint64(blk.GuestInsts), Arg2: uint64(len(blk.Slots)),
			Arg3: uint64(e.transNS), Str: e.kind()})
		if m.tr.SpecOn() {
			// Counter track: cumulative Spectre-pattern loads found so
			// far (pinned in every mitigating mode), sampled whenever a
			// translation lands.
			m.tr.Emit(obs.Event{Kind: obs.EvCounter, Cycle: m.cycles,
				Arg1: uint64(m.stats.RiskyLoads), Str: obs.CtrPinnedLoads})
		}
	}
}

// ErrInterrupted is returned (wrapped) by Run when the configured
// Interrupt channel fires before the guest exits.
var ErrInterrupted = errors.New("run interrupted")

// interruptPollEvery is how many transfers of control pass between
// Interrupt channel polls: frequent enough that a cancelled run stops
// within microseconds, rare enough that the interpreter hot loop does
// not pay a per-instruction channel operation.
const interruptPollEvery = 256

// raise finalises a terminal fault: the machine-level context (cycle
// count, and the PC when the lower layer could not know it) is filled
// in, the trap is counted, and the enriched fault is returned for Run
// to surface.
func (m *Machine) raise(f *trap.Fault, pc uint64) *trap.Fault {
	if f.PC == 0 {
		f.PC = pc
	}
	if f.Cycle == 0 {
		f.Cycle = m.cycles
	}
	m.stats.Traps.Record(f.Kind)
	if m.tr.BlockOn() {
		m.tr.Emit(obs.Event{Kind: obs.EvTrap, Cycle: m.cycles, PC: f.PC,
			Arg1: f.Addr, Str: f.Kind.String()})
	}
	return f
}

// Run executes the loaded guest until it exits (ecall/ebreak), faults,
// exceeds the cycle budget, or is interrupted. Guest-triggered failures
// come back as a *trap.Fault (errors.As-compatible) carrying the guest
// PC, cycle count and — for faults inside translated code — the entry
// PC of the translated region.
func (m *Machine) Run() (*Result, error) {
	m.onEnter(m.state.PC)
	m.poll = 0
	m.cycleCap = m.cfg.MaxCycles
	if m.cycleCap == 0 {
		m.cycleCap = ^uint64(0)
	}
	for {
		pc := m.state.PC
		if err := m.guard(pc); err != nil {
			return nil, err
		}
		if e := m.regionAt(pc); e != nil {
			m.wasTrans = true
			if err := m.runChain(pc, e); err != nil {
				return nil, err
			}
			continue
		}

		if m.wasTrans {
			m.wasTrans = false
			if m.tr.BlockOn() {
				m.tr.Emit(obs.Event{Kind: obs.EvInterpEnter, Cycle: m.cycles, PC: pc})
			}
		}
		res := riscv.StepPredecoded(&m.state, m.b, m.cfg.Interp, m.cycles, m.pred)
		m.cycles += res.Cycles
		m.stats.InterpInsts++
		switch res.Event.Kind {
		case riscv.EvExit, riscv.EvBreak:
			// A clean guest exit publishes this run's fresh translations
			// to the shared cache (and, when configured, to disk).
			// Faulted or interrupted runs never publish: their recording
			// stopped at an arbitrary instant a complete run would
			// overshoot.
			if m.tcr != nil {
				m.tcr.Publish()
				m.tcr = nil
			}
			return m.result(res.Event), nil
		case riscv.EvFault:
			return nil, m.raise(trap.From(res.Event.Err), res.Event.Addr)
		}
		if res.IsBranch {
			if res.Taken && m.tr.BlockOn() {
				m.tr.Emit(obs.Event{Kind: obs.EvInterpBranch, Cycle: m.cycles, PC: pc,
					Arg1: res.Target, Str: res.Inst.Op.String()})
			}
			if res.Inst.Op.IsBranch() {
				st := &m.record(pc).br
				st.total++
				if res.Taken {
					st.taken++
				}
			}
			if res.Taken {
				m.onEnter(res.Target)
			}
		}
	}
}

// guard runs the checks due before every transfer of control, in the
// outer loop and between chained transfers alike: the MaxCycles budget
// and, every interruptPollEvery transfers, the Interrupt channel and the
// fault injector's spurious interrupt. pc is where execution continues.
// The common case is small enough to inline; trip does the rest.
func (m *Machine) guard(pc uint64) error {
	if m.poll++; m.poll < interruptPollEvery && m.cycles <= m.cycleCap {
		return nil
	}
	return m.trip(pc)
}

// trip raises the cycle-budget trap, or polls the interrupt sources.
func (m *Machine) trip(pc uint64) error {
	if m.cycles > m.cycleCap {
		f := trap.Newf(trap.CycleBudgetExceeded, "cycle budget exceeded (max %d)", m.cfg.MaxCycles)
		return m.raise(f, pc)
	}
	m.poll = 0
	if m.cfg.Interrupt != nil {
		select {
		case <-m.cfg.Interrupt:
			return fmt.Errorf("dbt: %w at cycle %d", ErrInterrupted, m.cycles)
		default:
		}
	}
	if m.inj.spuriousInterrupt() {
		f := trap.Newf(trap.SpuriousInterrupt, "injected spurious interrupt")
		f.Injected = true
		return m.raise(f, pc)
	}
	return nil
}

// dispatch executes the region e, entered at pc, once on the register
// file in m.vregs: the one dispatch step of the chain loop. It
// attributes the execution to e's profile and emits the dispatch's trace
// events. A fault comes back with Block set to pc.
func (m *Machine) dispatch(pc uint64, e *transEntry) vliw.ExitInfo {
	tron := m.tr.BlockOn()
	if tron {
		m.tr.Emit(obs.Event{Kind: obs.EvBlockEnter, Cycle: m.cycles, PC: pc,
			Arg1: uint64(e.Block.GuestInsts), Arg2: uint64(len(e.Block.Slots)), Str: e.kind()})
	}
	start := m.cycles
	csBefore := m.core.Stats
	ei := m.core.Exec(e.Block, &m.vregs, m.b, &m.cycles)
	m.stats.BlockExecs++
	// Attribute what this dispatch cost to the region (the -profile
	// ranking): a handful of counter deltas per dispatch, cheap next to
	// executing the block itself.
	cs := m.core.Stats
	e.cycles += m.cycles - start
	e.bundles += cs.Bundles - csBefore.Bundles
	e.sideExits += cs.SideExits - csBefore.SideExits
	e.specLoads += cs.SpecLoads - csBefore.SpecLoads
	e.squashes += cs.SpecSquash - csBefore.SpecSquash
	if ei.Fault != nil {
		if tron {
			m.tr.Emit(obs.Event{Kind: obs.EvBlockExit, Cycle: m.cycles, PC: pc,
				Arg1: ei.FaultPC, Arg3: 1})
		}
		ei.Fault.Block = pc
		return ei
	}
	if tron {
		var side uint64
		if ei.SideExit {
			side = 1
		}
		m.tr.Emit(obs.Event{Kind: obs.EvBlockExit, Cycle: m.cycles, PC: pc,
			Arg1: ei.NextPC, Arg2: side})
		if m.tr.SpecOn() {
			// Counter track: running data-cache hit rate, sampled at block
			// granularity — dips line up with the flush phases of an
			// attack in the Perfetto view.
			m.tr.Emit(obs.Event{Kind: obs.EvCounter, Cycle: m.cycles,
				Arg1: m.b.DC.Stats().HitRatePct(), Str: obs.CtrCacheHitRate})
		}
	}
	e.execs++
	e.recov += cs.Recoveries - csBefore.Recoveries
	return ei
}

// result assembles the run's Result as of now. It has no side effects,
// so it also serves to snapshot a faulted run.
func (m *Machine) result(ev riscv.Event) *Result {
	s := m.stats
	cs := m.core.Stats
	s.Bundles = cs.Bundles
	s.SideExits = cs.SideExits
	s.Recoveries = cs.Recoveries
	s.SpecLoads = cs.SpecLoads
	s.SpecSquash = cs.SpecSquash
	s.Instret = m.state.Instret + m.core.Instret
	s.Cache = m.b.DC.Stats()
	s.Pred = m.pred.Stats()
	return &Result{
		Exit:    ev,
		Cycles:  m.cycles,
		Instret: s.Instret,
		Stats:   s,
	}
}

// TranslatedAt reports whether pc currently has translated code and
// whether it is a trace (test introspection).
func (m *Machine) TranslatedAt(pc uint64) (exists, isTrace bool) {
	e := m.regionAt(pc)
	return e != nil, e != nil && e.Trace
}

// BlockAt returns the translated block at pc, for inspection. A block
// the machine compiled lives in its code arena and is valid until
// Release; clone it (vliw.Block.Clone) to keep it longer.
func (m *Machine) BlockAt(pc uint64) *vliw.Block {
	if e := m.regionAt(pc); e != nil {
		return e.Block
	}
	return nil
}

// DumpIR re-translates the region at pc the same way the DBT engine did
// (trace when one exists, basic block otherwise), applies the
// configured mitigation, and renders the IR data-flow graph in
// Graphviz format with the audited poison analysis overlaid — poisoned
// nodes outlined blue, pinned accesses red with their guard edges
// (dashed red), guards annotated: the paper's Figure 3 for arbitrary
// guest code, under the machine's own mitigation mode.
func (m *Machine) DumpIR(pc uint64) (string, error) {
	e := m.regionAt(pc)
	irBlk, _, err := m.frontEnd(&m.front, pc, e != nil && e.Trace)
	if err != nil {
		return "", fmt.Errorf("dbt: DumpIR(%#x): %w", pc, err)
	}
	aud := &ir.AuditReport{}
	pipeline.Apply(&m.mitigate, m.cfg.Mitigation, irBlk, aud)
	return irBlk.Dot(aud.Overlay()), nil
}

// HotRegion summarises one translated entry point for profiling output.
// The dynamic counters (Cycles, BundleExecs, ...) are attributed per
// dispatch, so the report ranks regions by where simulated time
// actually went rather than by how often they were entered.
type HotRegion struct {
	PC         uint64
	Entries    uint64 // profiled entry count (interpreter + dispatch)
	Dispatches uint64 // translated executions of this region
	GuestInsts int
	Bundles    int // static bundle count of the translated code
	IsTrace    bool

	// Cycle-attributed dynamic profile.
	Cycles      uint64 // simulated cycles spent inside the region
	BundleExecs uint64
	SideExits   uint64
	SpecLoads   uint64
	Squashes    uint64
	Recoveries  uint64

	// Static mitigation report for the installed code.
	StaticSpecLoads int
	RiskyLoads      int
	GuardEdges      int
	PatternFound    bool

	// TransNS is the host-side translation latency in nanoseconds (a
	// property of the simulator's DBT engine, not of guest time).
	TransNS int64
}

// ProfileReport returns the translated regions sorted by attributed
// simulated cycles (hottest first; dispatch count and PC break ties) —
// the DBT engine's own view of where time goes.
func (m *Machine) ProfileReport() []HotRegion {
	var out []HotRegion
	for pc, ps := range m.pcs {
		e := ps.e
		if e == nil {
			continue
		}
		out = append(out, HotRegion{
			PC:              pc,
			Entries:         ps.entries,
			Dispatches:      e.execs,
			GuestInsts:      e.Block.GuestInsts,
			Bundles:         len(e.Block.Slots),
			IsTrace:         e.Trace,
			Cycles:          e.cycles,
			BundleExecs:     e.bundles,
			SideExits:       e.sideExits,
			SpecLoads:       e.specLoads,
			Squashes:        e.squashes,
			Recoveries:      e.recov,
			StaticSpecLoads: e.SpecLoads,
			RiskyLoads:      e.RiskyLoads,
			GuardEdges:      e.GuardEdges,
			PatternFound:    e.Pattern,
			TransNS:         e.transNS,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Cycles != out[b].Cycles {
			return out[a].Cycles > out[b].Cycles
		}
		if out[a].Dispatches != out[b].Dispatches {
			return out[a].Dispatches > out[b].Dispatches
		}
		return out[a].PC < out[b].PC
	})
	return out
}

// TranslatedPCs returns the entry points that currently have translated
// code, in ascending order (gbdump address validation, tooling).
func (m *Machine) TranslatedPCs() []uint64 {
	var pcs []uint64
	for pc, ps := range m.pcs {
		if ps.e != nil {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(a, b int) bool { return pcs[a] < pcs[b] })
	return pcs
}
