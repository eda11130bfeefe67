package dbt

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
)

// hotLoopSrc is a guest that crosses both translation thresholds: the
// loop block is translated, upgraded to a trace and chained, so a warm
// run exercises every cached-install shape.
const hotLoopSrc = `
main:
	li a0, 0
	li s1, 0
	li t0, 200
loop:
	addi a0, a0, 1
	addi s1, s1, 1
	blt s1, t0, loop
	andi a0, a0, 127
	ecall
`

// zeroTCacheStats strips the counters that legitimately differ between
// cold, warm and uncached runs of the same guest: everything else is
// guest-visible and must be bit-identical.
func zeroTCacheStats(s Stats) Stats {
	s.Translations = 0
	s.TCacheHits = 0
	s.TCacheMisses = 0
	return s
}

// A second machine on the same in-memory cache must skip every
// compilation and still be bit-identical to both the cold run and an
// uncached run.
func TestTransCacheWarmRun(t *testing.T) {
	cfg := DefaultConfig()
	base, _ := runSrc(t, hotLoopSrc, cfg)

	tc := tcache.New("")
	cfg.TransCache = tc
	cold, _ := runSrc(t, hotLoopSrc, cfg)
	if cold.Stats.Translations == 0 {
		t.Fatal("cold run translated nothing — the guest is not hot enough to test anything")
	}
	if cold.Stats.TCacheHits != 0 || cold.Stats.TCacheMisses != cold.Stats.Translations {
		t.Errorf("cold run probe counters off: %d hits, %d misses, %d translations",
			cold.Stats.TCacheHits, cold.Stats.TCacheMisses, cold.Stats.Translations)
	}

	warm, _ := runSrc(t, hotLoopSrc, cfg)
	if warm.Stats.Translations != 0 {
		t.Errorf("warm run still compiled %d regions", warm.Stats.Translations)
	}
	if warm.Stats.TCacheHits != cold.Stats.Translations {
		t.Errorf("warm run hit %d cached regions, cold run compiled %d",
			warm.Stats.TCacheHits, cold.Stats.Translations)
	}

	for name, res := range map[string]*Result{"cold": cold, "warm": warm} {
		if res.Exit.Code != base.Exit.Code {
			t.Errorf("%s exit %d, uncached %d", name, res.Exit.Code, base.Exit.Code)
		}
		if res.Cycles != base.Cycles {
			t.Errorf("%s run took %d cycles, uncached %d", name, res.Cycles, base.Cycles)
		}
		if got, want := zeroTCacheStats(res.Stats), zeroTCacheStats(base.Stats); got != want {
			t.Errorf("%s stats diverge from uncached:\n%+v\n%+v", name, got, want)
		}
	}
}

// The on-disk path: a fresh Cache instance (a new process, in effect)
// on the same directory warm-starts; a corrupted document degrades to a
// cold run instead of failing.
func TestTransCacheDisk(t *testing.T) {
	dir := t.TempDir()

	cfg := DefaultConfig()
	cfg.TransCache = tcache.New(dir)
	cold, _ := runSrc(t, hotLoopSrc, cfg)
	if err := cfg.TransCache.Err(); err != nil {
		t.Fatal(err)
	}
	if _, _, persisted := cfg.TransCache.Stats(); persisted == 0 {
		t.Fatal("clean run published no document")
	}

	warmCfg := DefaultConfig()
	warmCfg.TransCache = tcache.New(dir)
	warm, _ := runSrc(t, hotLoopSrc, warmCfg)
	if warm.Stats.Translations != 0 {
		t.Errorf("cross-instance warm run still compiled %d regions", warm.Stats.Translations)
	}
	if warm.Cycles != cold.Cycles || warm.Exit.Code != cold.Exit.Code {
		t.Errorf("warm run diverged: %d cycles exit %d, cold %d cycles exit %d",
			warm.Cycles, warm.Exit.Code, cold.Cycles, cold.Exit.Code)
	}

	// Corrupt every document: the next run must quietly recompile.
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("not json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	recCfg := DefaultConfig()
	recCfg.TransCache = tcache.New(dir)
	rec, _ := runSrc(t, hotLoopSrc, recCfg)
	if rec.Stats.Translations == 0 {
		t.Error("corrupted cache still served regions")
	}
	if rec.Cycles != cold.Cycles || rec.Exit.Code != cold.Exit.Code {
		t.Errorf("recovery run diverged: %d cycles exit %d, cold %d cycles exit %d",
			rec.Cycles, rec.Exit.Code, cold.Cycles, cold.Exit.Code)
	}
}

// TestTransCacheTornWrite simulates the two crash shapes of the atomic
// tmp+rename persist protocol and requires both to degrade to a cold
// run with the error (if any) surfacing only through Cache.Err():
//
//   - a crash BETWEEN tmp-write and rename leaves an orphaned .tcache-*
//     file next to the document; loads must ignore it (it is not the
//     document) and runs proceed from the intact document unharmed;
//   - a torn document (truncated mid-JSON, as after a crash that lost
//     the tail of a non-atomic write) must parse-fail into a cold run,
//     and the recompiled regions must then repair the document.
func TestTransCacheTornWrite(t *testing.T) {
	dir := t.TempDir()

	cfg := DefaultConfig()
	cfg.TransCache = tcache.New(dir)
	cold, _ := runSrc(t, hotLoopSrc, cfg)
	if err := cfg.TransCache.Err(); err != nil {
		t.Fatal(err)
	}

	var docs []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		docs = append(docs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("clean run persisted no document")
	}

	// Crash shape 1: orphaned tmp file beside every document. The
	// orphan even holds valid-looking JSON — nothing may read it.
	for _, doc := range docs {
		orphan := filepath.Join(filepath.Dir(doc), ".tcache-orphan123")
		if err := os.WriteFile(orphan, []byte(`{"schema":"ghostbusters/tcache/v1"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warmCfg := DefaultConfig()
	warmCfg.TransCache = tcache.New(dir)
	warm, _ := runSrc(t, hotLoopSrc, warmCfg)
	if warm.Stats.Translations != 0 {
		t.Errorf("orphaned tmp file spoiled the warm start: %d recompilations", warm.Stats.Translations)
	}
	if err := warmCfg.TransCache.Err(); err != nil {
		t.Errorf("orphaned tmp file raised an error: %v", err)
	}

	// Crash shape 2: every document torn mid-JSON. The run must come up
	// cold, bit-identical, with the parse failure only in Err().
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(doc, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tornCfg := DefaultConfig()
	tornCfg.TransCache = tcache.New(dir)
	torn, _ := runSrc(t, hotLoopSrc, tornCfg)
	if torn.Stats.Translations == 0 {
		t.Error("torn document still served regions")
	}
	if torn.Cycles != cold.Cycles || torn.Exit.Code != cold.Exit.Code {
		t.Errorf("torn-cache run diverged: %d cycles exit %d, cold %d cycles exit %d",
			torn.Cycles, torn.Exit.Code, cold.Cycles, cold.Exit.Code)
	}
	if err := tornCfg.TransCache.Err(); err == nil {
		t.Error("torn document was not reported through Err()")
	}

	// The cold run republished; the next instance warm-starts again.
	repairedCfg := DefaultConfig()
	repairedCfg.TransCache = tcache.New(dir)
	repaired, _ := runSrc(t, hotLoopSrc, repairedCfg)
	if repaired.Stats.Translations != 0 {
		t.Errorf("repaired document did not warm-start: %d recompilations", repaired.Stats.Translations)
	}
	if err := repairedCfg.TransCache.Err(); err != nil {
		t.Errorf("repaired run raised: %v", err)
	}
}

// Different modes and different configurations must never share cached
// code: the mitigation pass output depends on both.
func TestTransCacheKeySeparation(t *testing.T) {
	tc := tcache.New("")

	cfg := DefaultConfig()
	cfg.TransCache = tc
	runSrc(t, hotLoopSrc, cfg)

	other := DefaultConfig()
	other.TransCache = tc
	other.Mitigation = core.ModeGhostBusters
	res, _ := runSrc(t, hotLoopSrc, other)
	if res.Stats.TCacheHits != 0 {
		t.Errorf("ghostbusters run hit %d regions cached by the unsafe run", res.Stats.TCacheHits)
	}
	if res.Stats.Translations == 0 {
		t.Error("ghostbusters run compiled nothing")
	}

	tweaked := DefaultConfig()
	tweaked.TransCache = tc
	tweaked.MaxUnroll = 2
	res, _ = runSrc(t, hotLoopSrc, tweaked)
	if res.Stats.TCacheHits != 0 {
		t.Errorf("run with a different unroll limit hit %d foreign regions", res.Stats.TCacheHits)
	}
}

// The translation-cache key is the machine's Config rendered with %+v,
// minus the scrubbed runtime hooks. Every other field must print by
// value (a pointer, channel, func, map or interface would print an
// address or a method's say-so), and every scalar in it must reach the
// key. A Config field added later without a classification fails here.
func TestTransCacheKeyCoversConfig(t *testing.T) {
	scrubbed := map[string]bool{
		"Tracer": true, "Interrupt": true, "FaultInject": true,
		"TransCache": true, "TCacheSalt": true,
	}
	fingerprint := func(c Config) string { return (&Machine{cfg: c}).tcFingerprint() }
	want := fingerprint(DefaultConfig())

	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if scrubbed[f.Name] {
			// A scrubbed hook, set, leaves the key alone.
			cfg := DefaultConfig()
			v := reflect.ValueOf(&cfg).Elem().Field(i)
			switch f.Type.Kind() {
			case reflect.Pointer:
				v.Set(reflect.New(f.Type.Elem()))
			case reflect.Chan:
				v.Set(reflect.MakeChan(reflect.ChanOf(reflect.BothDir, f.Type.Elem()), 0))
			case reflect.String:
				v.SetString("salt")
			default:
				t.Fatalf("scrubbed field %s has unexpected kind %v", f.Name, f.Type.Kind())
			}
			if fingerprint(cfg) != want {
				t.Errorf("scrubbed field %s changes the key", f.Name)
			}
			continue
		}
		if bad := addressKind(f.Type); bad != "" {
			t.Errorf("key field %s holds a %s: scrub it or make it a value", f.Name, bad)
		}
	}
	if t.Failed() {
		return
	}

	// Perturb each scalar leaf of a default Config in turn.
	leaves := 0
	for ; ; leaves++ {
		cfg := DefaultConfig()
		skip := leaves
		path, ok := perturbLeaf(reflect.ValueOf(&cfg).Elem(), "", &skip, scrubbed)
		if !ok {
			break
		}
		if fingerprint(cfg) == want {
			t.Errorf("changing %s leaves the translation-cache key unchanged", path)
		}
	}
	if leaves < ct.NumField()-len(scrubbed) {
		t.Errorf("walked %d key leaves, fewer than Config's %d key fields", leaves, ct.NumField()-len(scrubbed))
	}
}

// addressKind names the first pointer-like kind reachable from t by
// value, or "" when %+v prints t entirely by value.
func addressKind(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Chan, reflect.Func, reflect.Map, reflect.Interface:
		return t.Kind().String()
	case reflect.Array, reflect.Slice:
		return addressKind(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if k := addressKind(t.Field(i).Type); k != "" {
				return k
			}
		}
	}
	return ""
}

// perturbLeaf changes the *n-th scalar leaf under v (depth first,
// skipping top-level fields named in skip) and reports its path. When v
// holds fewer leaves it changes nothing, counts them off *n and reports
// false.
func perturbLeaf(v reflect.Value, path string, n *int, skip map[string]bool) (string, bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path == "" && skip[name] {
				continue
			}
			if p, ok := perturbLeaf(v.Field(i), path+"."+name, n, skip); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p, ok := perturbLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), n, skip); ok {
				return p, true
			}
		}
		return "", false
	}
	if *n > 0 {
		*n--
		return "", false
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("unhandled leaf kind " + v.Kind().String() + " at " + path)
	}
	return path, true
}

// Self-modifying code abandons the cache mid-run: nothing is served
// after the store and nothing is ever published, so a later run of the
// same image cannot pick up translations describing overwritten text.
func TestTransCacheSMC(t *testing.T) {
	newWord, err := riscv.Encode(riscv.Inst{Op: riscv.ADDI, Rd: 10, Rs1: 10, Imm: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
main:
	li a0, 0
	li s1, 0
	la s2, patch
	li s3, %d
	li s4, 40
	li t0, 80
loop:
patch:
	addi a0, a0, 1
	bne s1, s4, skip
	sw s3, 0(s2)
skip:
	addi s1, s1, 1
	blt s1, t0, loop
	ecall
`, newWord)
	const wantExit = 41*1 + 39*2

	tc := tcache.New("")
	cfg := DefaultConfig()
	cfg.TransCache = tc

	first, _ := runSrc(t, src, cfg)
	if first.Exit.Code != wantExit {
		t.Fatalf("first run exit %d, want %d", first.Exit.Code, wantExit)
	}
	if first.Stats.TCacheMisses == 0 {
		t.Error("cache never consulted before the store")
	}

	second, _ := runSrc(t, src, cfg)
	if second.Exit.Code != wantExit {
		t.Fatalf("second run exit %d, want %d", second.Exit.Code, wantExit)
	}
	if second.Stats.TCacheHits != 0 {
		t.Errorf("self-modifying run published %d regions that a later run consumed",
			second.Stats.TCacheHits)
	}
	if second.Cycles != first.Cycles {
		t.Errorf("runs diverged: %d vs %d cycles", second.Cycles, first.Cycles)
	}
}

// Runs whose translation schedule is not a pure function of the cache
// key — fault injection, auditing, encoding verification, interpreter
// mode — must bypass the cache entirely.
func TestTransCacheEligibility(t *testing.T) {
	cases := map[string]func(*Config){
		"audit":  func(c *Config) { c.Audit = true },
		"verify": func(c *Config) { c.VerifyEncoding = true },
		"interp": func(c *Config) { c.DisableTranslation = true },
		// An active injector perturbs the translation schedule; note an
		// all-zero-rate injector is inert and deliberately stays eligible.
		"fault-injector": func(c *Config) { c.FaultInject = &FaultInject{Seed: 1, CacheFaultRate: 1e-9} },
	}
	for name, mutate := range cases {
		tc := tcache.New("")
		cfg := DefaultConfig()
		cfg.TransCache = tc
		mutate(&cfg)
		res, _ := runSrc(t, hotLoopSrc, cfg)
		if res.Stats.TCacheHits != 0 || res.Stats.TCacheMisses != 0 {
			t.Errorf("%s: ineligible run touched the cache (%d hits, %d misses)",
				name, res.Stats.TCacheHits, res.Stats.TCacheMisses)
		}
		warm, _ := runSrc(t, hotLoopSrc, cfg)
		if warm.Stats.TCacheHits != 0 {
			t.Errorf("%s: ineligible run published regions", name)
		}
	}
}

// alwaysConflictSrc stores and immediately reloads the same location
// through two register views the DBT engine cannot prove equal: memory
// speculation hoists the load above the store and the MCB rolls back on
// every single iteration.
const alwaysConflictSrc = `
	.data
cell:	.dword 7
out:	.dword 0
	.text
main:
	la s0, cell
	la s1, cell
	li s2, 0
	li s3, 0
loop:
	mul t0, s2, s2     # slow value for the store
	sd t0, 0(s0)
	ld t1, 0(s1)       # same address, unprovable: speculated, conflicts
	add s3, s3, t1
	addi s2, s2, 1
	li t2, 400
	blt s2, t2, loop
	la t3, out
	sd s3, 0(t3)
	li a0, 0
	ecall
`

// A region's lifecycle — translate or cache hit, install, trace
// upgrade, dispatch — is one path whichever way it is driven: uncached,
// from a cold or a warm translation cache, chained or not, a run with
// MCB recoveries ends with the same Stats (bar the translation and
// cache probe counters) and the same per-region profile.
func TestRegionLifecycleParity(t *testing.T) {
	type outcome struct {
		stats   Stats
		profile []HotRegion
	}
	run := func(cfg Config) (outcome, Stats) {
		res, m := runSrc(t, alwaysConflictSrc, cfg)
		prof := m.ProfileReport()
		for i := range prof {
			prof[i].TransNS = 0
		}
		return outcome{zeroTCacheStats(res.Stats), prof}, res.Stats
	}
	var want outcome
	for _, chained := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.DisableChaining = !chained
		tc := tcache.New("")
		for _, pass := range []string{"uncached", "cold", "warm"} {
			if pass != "uncached" {
				cfg.TransCache = tc
			}
			got, raw := run(cfg)
			if pass == "warm" && (raw.Translations != 0 || raw.TCacheHits == 0) {
				t.Errorf("chained=%v: warm run compiled %d regions, hit %d", chained, raw.Translations, raw.TCacheHits)
			}
			if want.profile == nil {
				want = got
				if want.stats.Recoveries == 0 {
					t.Fatal("want MCB recoveries to exercise the recovery path, got none")
				}
				continue
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("chained=%v %s: stats diverge\n got %+v\nwant %+v", chained, pass, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.profile, want.profile) {
				t.Errorf("chained=%v %s: profile diverges\n got %+v\nwant %+v", chained, pass, got.profile, want.profile)
			}
		}
	}
}
