package attack

import (
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/vliw"
)

func cfgWithMode(mode core.Mode) dbt.Config {
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = mode
	return cfg
}

func TestSpectreV1LeaksUnderUnsafe(t *testing.T) {
	res, err := Run(V1, cfgWithMode(core.ModeUnsafe), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("v1 should fully recover the secret under unsafe: %s\nsecret    %x\nrecovered %x",
			res, res.Secret, res.Recovered)
	}
	if res.Stats.SpecLoads == 0 {
		t.Error("no speculative loads issued")
	}
}

func TestSpectreV4LeaksUnderUnsafe(t *testing.T) {
	res, err := Run(V4, cfgWithMode(core.ModeUnsafe), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("v4 should fully recover the secret under unsafe: %s\nsecret    %x\nrecovered %x",
			res, res.Secret, res.Recovered)
	}
	if res.Stats.Recoveries == 0 {
		t.Error("v4 never triggered an MCB recovery (the rollback the paper describes)")
	}
}

func TestMitigationsStopV1(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation} {
		res, err := Run(V1, cfgWithMode(mode), Params{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.BytesCorrect != 0 {
			t.Errorf("%s: v1 recovered %d/%d bytes; mitigation failed", mode, res.BytesCorrect, len(res.Secret))
		}
	}
}

func TestMitigationsStopV4(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation} {
		res, err := Run(V4, cfgWithMode(mode), Params{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.BytesCorrect != 0 {
			t.Errorf("%s: v4 recovered %d/%d bytes; mitigation failed", mode, res.BytesCorrect, len(res.Secret))
		}
	}
}

// The ported mitigation zoo must close the side channel at the ground
// truth: the scoreboard counts the secret-dependent cache lines the
// victim speculatively filled, independent of whether the attacker's
// timing loop decoded them.
func TestPortedMitigationsLeakZeroBits(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeLoadFence, core.ModeSFIClamp, core.ModeFenceMin} {
		for _, v := range []Variant{V1, V4} {
			res, err := Run(v, cfgWithMode(mode), Params{})
			if err != nil {
				t.Fatalf("%s/%s: %v", v, mode, err)
			}
			if res.Leakage == nil {
				t.Fatalf("%s/%s: no scoreboard", v, mode)
			}
			if res.Leakage.BitsLeaked != 0 || res.Leakage.LeakedBytes != 0 {
				t.Errorf("%s/%s: ground truth says %d bits (%d bytes) leaked",
					v, mode, res.Leakage.BitsLeaked, res.Leakage.LeakedBytes)
			}
			if res.BytesCorrect != 0 {
				t.Errorf("%s/%s: attacker recovered %d bytes", v, mode, res.BytesCorrect)
			}
		}
	}
}

// sfi-clamp is the one mitigation that neutralises the leak while
// keeping the risky loads speculative — the distinguishing property of
// masking over fencing.
func TestSFIClampKeepsSpeculating(t *testing.T) {
	res, err := Run(V1, cfgWithMode(core.ModeSFIClamp), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpecLoads == 0 {
		t.Error("sfi-clamp issued no speculative loads; masking should preserve speculation")
	}
	if res.Leakage.BitsLeaked != 0 {
		t.Errorf("sfi-clamp leaked %d bits", res.Leakage.BitsLeaked)
	}
}

func TestGhostBustersDetectsPattern(t *testing.T) {
	for _, v := range []Variant{V1, V4} {
		res, err := Run(v, cfgWithMode(core.ModeGhostBusters), Params{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PatternsFound == 0 {
			t.Errorf("%s: poison analysis found no Spectre pattern in the victim", v)
		}
		if res.Stats.RiskyLoads == 0 || res.Stats.GuardEdges == 0 {
			t.Errorf("%s: no risky loads pinned (risky=%d edges=%d)", v, res.Stats.RiskyLoads, res.Stats.GuardEdges)
		}
	}
}

func TestGhostBustersKeepsSpeculating(t *testing.T) {
	// The fine-grained countermeasure pins only the risky access: the
	// rest of the program should still issue speculative loads.
	res, err := Run(V1, cfgWithMode(core.ModeGhostBusters), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpecLoads == 0 {
		t.Error("ghostbusters disabled all speculation; it should be fine-grained")
	}
}

func TestLineByLineFlushAlsoWorks(t *testing.T) {
	res, err := Run(V1, cfgWithMode(core.ModeUnsafe), Params{Flush: FlushLineByLine, Secret: []byte{0x42, 0xA7}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("v1 with line-by-line flush failed: recovered %x", res.Recovered)
	}
}

func TestProtectedSecretStillLeaks(t *testing.T) {
	// The paper: "we can read the value of a memory location which
	// should not be readable". With the secret region read-protected,
	// architectural loads fault, but the dismissable speculative load
	// still exfiltrates it.
	res, err := Run(V1, cfgWithMode(core.ModeUnsafe), Params{ProtectSecret: true, Secret: []byte{0x5C, 0x99, 0x23}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("v1 against protected secret failed: recovered %x", res.Recovered)
	}
}

func TestDistinctSecrets(t *testing.T) {
	// Different secrets recover differently (no accidental constants).
	a, err := Run(V1, cfgWithMode(core.ModeUnsafe), Params{Secret: []byte{0x11, 0x22, 0x33}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(V1, cfgWithMode(core.ModeUnsafe), Params{Secret: []byte{0xAA, 0xBB, 0xCC}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Success() || !b.Success() {
		t.Fatalf("recoveries failed: %x / %x", a.Recovered, b.Recovered)
	}
	if string(a.Recovered) == string(b.Recovered) {
		t.Error("different secrets recovered identically")
	}
}

// TestRunMatrix runs both variants under every registered mode: only
// the unsafe baseline leaks, and it leaks the whole secret.
func TestRunMatrix(t *testing.T) {
	modes := core.Modes()
	if len(modes) == 0 {
		t.Fatal("no registered modes")
	}
	secret := []byte{0x7E, 0x3B}
	for _, v := range []Variant{V1, V4} {
		for _, mode := range modes {
			res, err := Run(v, cfgWithMode(mode), Params{Secret: secret})
			if err != nil {
				t.Fatalf("%s/%s: %v", v, mode, err)
			}
			vulnerable := mode == core.ModeUnsafe
			if vulnerable && !res.Success() {
				t.Errorf("%s/%s: expected full leak, got %d/%d", v, mode, res.BytesCorrect, len(res.Secret))
			}
			if !vulnerable && res.BytesCorrect != 0 {
				t.Errorf("%s/%s: leak survived mitigation (%d bytes)", v, mode, res.BytesCorrect)
			}
		}
	}
}

func TestAttacksAcrossCoreWidths(t *testing.T) {
	secret := []byte{0x9D, 0x31}
	for name, mk := range map[string]func() vliw.Config{
		"narrow": vliw.NarrowConfig,
		"wide":   vliw.WideConfig,
	} {
		for _, v := range []Variant{V1, V4} {
			cfg := dbt.DefaultConfig()
			cfg.Core = mk()
			res, err := Run(v, cfg, Params{Secret: secret})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			if !res.Success() {
				t.Errorf("%s: %s failed to leak (recovered %x)", name, v, res.Recovered)
			}
			cfg.Mitigation = core.ModeGhostBusters
			res2, err := Run(v, cfg, Params{Secret: secret})
			if err != nil {
				t.Fatalf("%s/%s mitigated: %v", name, v, err)
			}
			if res2.BytesCorrect != 0 {
				t.Errorf("%s: %s leaked through the mitigation", name, v)
			}
		}
	}
}

func TestAttackAcrossMissPenalties(t *testing.T) {
	for _, penalty := range []uint64{8, 40} {
		cfg := dbt.DefaultConfig()
		cfg.Cache.MissPenalty = penalty
		res, err := Run(V1, cfg, Params{Secret: []byte{0xB5}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success() {
			t.Errorf("miss penalty %d: attack failed", penalty)
		}
	}
}
