package dbt

import (
	"reflect"
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
)

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

func TestAdaptiveRetranslationDeoptimisesRecoveryStorms(t *testing.T) {
	base := DefaultConfig()
	off, _ := runSrc(t, alwaysConflictSrc, base)
	if off.Stats.Recoveries < 300 {
		t.Fatalf("expected a recovery storm, got %d recoveries", off.Stats.Recoveries)
	}

	adaptive := DefaultConfig()
	adaptive.AdaptiveRetranslation = true
	on, _ := runSrc(t, alwaysConflictSrc, adaptive)
	if on.Stats.Deopts == 0 {
		t.Fatal("adaptive machine never deoptimised the conflicting block")
	}
	if on.Stats.Recoveries >= off.Stats.Recoveries/2 {
		t.Errorf("deoptimisation barely reduced recoveries: %d vs %d",
			on.Stats.Recoveries, off.Stats.Recoveries)
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("adaptive retranslation did not pay off: %d vs %d cycles",
			on.Cycles, off.Cycles)
	}
	if off.Exit.Code != on.Exit.Code {
		t.Errorf("exit codes diverge: %d vs %d", off.Exit.Code, on.Exit.Code)
	}
}

func TestAdaptiveRetranslationKeepsResultsCorrect(t *testing.T) {
	// Equivalence across interpreter and adaptive machine.
	p := riscv.MustAssemble(alwaysConflictSrc)
	want := map[string]uint64{}
	for _, adaptive := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AdaptiveRetranslation = adaptive
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Load(p)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		v, _ := m.Mem().Read(p.MustSymbol("out"), 8)
		if !adaptive {
			want["out"] = v
		} else if v != want["out"] {
			t.Fatalf("adaptive result %d != baseline %d", v, want["out"])
		}
	}
}

func TestAdaptiveDoesNotDeoptConflictFreeCode(t *testing.T) {
	src := `
	.data
a:	.space 512
b:	.space 512
	.text
main:
	la s0, a
	la s1, b
	li s2, 0
loop:
	andi t0, s2, 63
	slli t0, t0, 3
	add t1, s0, t0
	sd s2, 0(t1)
	add t2, s1, t0
	ld t3, 0(t2)       # different array: speculation never conflicts
	addi s2, s2, 1
	li t4, 300
	blt s2, t4, loop
	li a0, 0
	ecall
`
	cfg := DefaultConfig()
	cfg.AdaptiveRetranslation = true
	res, _ := runSrc(t, src, cfg)
	if res.Stats.Deopts != 0 {
		t.Errorf("conflict-free code deoptimised %d times", res.Stats.Deopts)
	}
	if res.Stats.SpecLoads == 0 {
		t.Error("speculation should stay enabled")
	}
}

// A region's lifecycle — translate or cache hit, install, dispatch,
// deopt, retranslate — is one path whichever way it is driven: uncached,
// from a cold or a warm translation cache, chained or not, a run with
// deopts ends with the same Stats (bar the translation and cache probe
// counters) and the same per-region profile.
func TestAdaptiveLifecycleParity(t *testing.T) {
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
		cfg.AdaptiveRetranslation = true
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
				if want.stats.Deopts != 2 {
					t.Fatalf("want 2 deopts to exercise retranslation, got %d", want.stats.Deopts)
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
