package ghostbusters_test

import (
	"strings"
	"testing"

	"ghostbusters"
)

func TestFacadeAssembleAndRun(t *testing.T) {
	prog, err := ghostbusters.Assemble(`
main:
	li a0, 7
	li a1, 6
	mul a0, a0, a1
	ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ghostbusters.NewMachine(ghostbusters.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit.Code != 42 {
		t.Fatalf("exit = %d, want 42", res.Exit.Code)
	}
	if res.Cycles == 0 || res.Instret == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestFacadeModes(t *testing.T) {
	for _, name := range []string{"unsafe", "ghostbusters", "fence", "nospec"} {
		m, err := ghostbusters.ParseMode(name)
		if err != nil {
			t.Fatalf("ParseMode(%s): %v", name, err)
		}
		cfg := ghostbusters.WithMitigation(ghostbusters.DefaultConfig(), m)
		if cfg.Mitigation != m {
			t.Fatalf("WithMitigation did not set the mode")
		}
	}
	if _, err := ghostbusters.ParseMode("nonsense"); err == nil {
		t.Fatal("ParseMode(nonsense) should fail")
	}
}

func TestFacadeAttackRoundTrip(t *testing.T) {
	secret := []byte{0x77, 0x3A}
	res, err := ghostbusters.RunAttack(ghostbusters.SpectreV1,
		ghostbusters.DefaultConfig(),
		ghostbusters.AttackParams{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("unsafe attack failed: %x", res.Recovered)
	}
	mitigated, err := ghostbusters.RunAttack(ghostbusters.SpectreV1,
		ghostbusters.WithMitigation(ghostbusters.DefaultConfig(), ghostbusters.ModeGhostBusters),
		ghostbusters.AttackParams{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	if mitigated.BytesCorrect != 0 {
		t.Fatalf("mitigated attack leaked %d bytes", mitigated.BytesCorrect)
	}
}

func TestFacadeKernels(t *testing.T) {
	ks := ghostbusters.Kernels()
	if len(ks) < 12 {
		t.Fatalf("suite has only %d kernels", len(ks))
	}
	k, err := ghostbusters.KernelByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	row, err := ghostbusters.RunKernel(k, 8, ghostbusters.DefaultConfig(),
		[]ghostbusters.Mode{ghostbusters.ModeUnsafe, ghostbusters.ModeNoSpeculation})
	if err != nil {
		t.Fatal(err)
	}
	table := ghostbusters.FormatRows([]*ghostbusters.Row{row},
		[]ghostbusters.Mode{ghostbusters.ModeUnsafe, ghostbusters.ModeNoSpeculation})
	if !strings.Contains(table, "gemm") {
		t.Fatalf("table: %s", table)
	}
}

func TestFacadePoCMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow under -short")
	}
	table, lm, err := ghostbusters.RunLeakageMatrix(ghostbusters.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(ghostbusters.AllModes()); len(lm.Cells) != want {
		t.Fatalf("leak matrix has %d cells, want %d", len(lm.Cells), want)
	}
	for _, want := range []string{"spectre-v1", "spectre-v4", "unsafe", "ghostbusters", "YES", "NO"} {
		if !strings.Contains(table, want) {
			t.Fatalf("matrix missing %q:\n%s", want, table)
		}
	}
}

func TestFacadeCoreGeometries(t *testing.T) {
	for _, mk := range []func() ghostbusters.CoreConfig{
		ghostbusters.NarrowCore, ghostbusters.DefaultCore, ghostbusters.WideCore,
	} {
		cfg := ghostbusters.DefaultConfig()
		cfg.Core = mk()
		m, err := ghostbusters.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prog, _ := ghostbusters.Assemble("main:\n\tli a0, 5\n\tecall\n")
		_ = m.Load(prog)
		res, err := m.Run()
		if err != nil || res.Exit.Code != 5 {
			t.Fatalf("width variant failed: %v %v", res, err)
		}
	}
}
