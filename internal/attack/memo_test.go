package attack

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/riscv"
)

// memoProgram returns the program Run would load for v, cfg and p.
func memoProgram(t *testing.T, v Variant, cfg dbt.Config, p Params) *riscv.Program {
	t.Helper()
	src, err := Source(v, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := assemble(src, p.ProtectSecret)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func memoLen() int {
	progMemo.Lock()
	defer progMemo.Unlock()
	return len(progMemo.progs)
}

// TestConcurrentRunsShareProgramsSafely runs both variants under every
// mode on several goroutines at once, all loading the two memoised
// programs, and checks that each result equals a sequential run's. A
// run that wrote to a shared program would show here as a data race
// under -race, or as a program that no longer equals a fresh assembly
// of its source.
func TestConcurrentRunsShareProgramsSafely(t *testing.T) {
	params := Params{Secret: []byte{0x3C, 0xA7}}
	type cell struct {
		v    Variant
		mode core.Mode
	}
	var cells []cell
	for _, v := range []Variant{V1, V4} {
		for _, mode := range core.Modes() {
			cells = append(cells, cell{v, mode})
		}
	}
	want := make([]*Result, len(cells))
	for i, c := range cells {
		res, err := Run(c.v, cfgWithMode(c.mode), params)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.v, c.mode, err)
		}
		want[i] = res
	}

	const workers = 4
	got := make([]*Result, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := Run(cells[i].v, cfgWithMode(cells[i].mode), params)
				if err != nil {
					t.Errorf("%s/%s: %v", cells[i].v, cells[i].mode, err)
					continue
				}
				got[i] = res
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, c := range cells {
		g, w := got[i], want[i]
		if g == nil {
			continue // reported above
		}
		if g.Cycles != w.Cycles || g.Stats != w.Stats || !reflect.DeepEqual(g.Leakage, w.Leakage) ||
			!slices.Equal(g.Recovered, w.Recovered) {
			t.Errorf("%s/%s: concurrent run differs from the sequential one:\nconcurrent %d cycles %+v %+v\nsequential %d cycles %+v %+v",
				c.v, c.mode, g.Cycles, g.Stats, g.Leakage, w.Cycles, w.Stats, w.Leakage)
		}
	}

	progMemo.Lock()
	progs := slices.Clone(progMemo.progs)
	progMemo.Unlock()
	for _, mp := range progs {
		if !reflect.DeepEqual(mp.prog, riscv.MustAssemble(mp.src)) {
			t.Error("a memoised program changed after the runs that shared it")
		}
	}
}

// TestMemoKeepsParamsApart checks that Params differing in one field
// that shapes the program never share one, and that equal Params do.
func TestMemoKeepsParamsApart(t *testing.T) {
	cfg := dbt.DefaultConfig()
	secret := []byte{0x21, 0x43}
	base := Params{Secret: secret}
	others := map[string]Params{
		"Secret":        {Secret: []byte{0x21, 0x44}},
		"Flush":         {Secret: secret, Flush: FlushLineByLine},
		"TrainRounds":   {Secret: secret, TrainRounds: 32},
		"ProtectSecret": {Secret: secret, ProtectSecret: true},
	}
	for _, v := range []Variant{V1, V4} {
		p0 := memoProgram(t, v, cfg, base)
		if again := memoProgram(t, v, cfg, base); again != p0 {
			t.Errorf("%s: equal Params assembled twice", v)
		}
		for field, p := range others {
			if memoProgram(t, v, cfg, p) == p0 {
				t.Errorf("%s: Params differing in %s share a program", v, field)
			}
		}
	}
	if p1, p4 := memoProgram(t, V1, cfg, base), memoProgram(t, V4, cfg, base); p1 == p4 {
		t.Error("V1 and V4 share a program")
	}
}

// TestMemoBound assembles more distinct programs than the memo keeps
// and checks that it never holds more than its bound, evicting the
// oldest first.
func TestMemoBound(t *testing.T) {
	cfg := dbt.DefaultConfig()
	var first *riscv.Program
	for i := 0; i < 2*progMemoSize; i++ {
		p := memoProgram(t, V1, cfg, Params{Secret: []byte{0x80 + byte(i)}})
		if i == 0 {
			first = p
		}
		if n := memoLen(); n > progMemoSize {
			t.Fatalf("the memo holds %d programs, bound %d", n, progMemoSize)
		}
	}
	if memoProgram(t, V1, cfg, Params{Secret: []byte{0x80}}) == first {
		t.Error("the oldest program survived more than the bound of newer ones")
	}
	if n := memoLen(); n != progMemoSize {
		t.Fatalf("the memo holds %d programs after %d distinct ones, want %d", n, 2*progMemoSize, progMemoSize)
	}
}
