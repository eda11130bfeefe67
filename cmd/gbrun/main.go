// Command gbrun assembles and runs an rv64im guest program on the
// simulated DBT-based processor:
//
//	gbrun [-mode <mitigation>] [-width 2|4|8]
//	      [-interp] [-stats] [-json] [-trace] [-traceout file]
//	      [-trace-format text|jsonl|perfetto] [-profile]
//	      [-audit] [-audit-json file]
//	      [-detect] [-detect-json file] [-spans file]
//	      [-tcache] [-tcache-dir dir] program.s
//
// The exit status is the guest's exit code when the guest runs to
// completion. Failures use the codes every run CLI shares (see
// internal/cli):
//
//	1  host-side error (unreadable file, assembly error)
//	2  usage error, including a -width other than 2, 4 or 8
//	3  guest trap (illegal instruction, wild jump, out-of-range access,
//	   cycle-budget exhaustion, ...) — the trap kind, guest PC, faulting
//	   address and cycle count are printed to stderr
//	4  interrupted by SIGINT/SIGTERM — the in-flight run is cancelled
//	   through the machine's interrupt hook and any -traceout stream is
//	   flushed before exiting, so a partial trace of the cancelled run
//	   survives
//
// -trace logs block dispatches and taken interpreter branches to stderr
// in the classic human-readable line format. -traceout writes the full
// event stream (including per-speculative-load events) to a file in the
// format chosen by -trace-format; "perfetto" produces a Chrome
// trace-event JSON loadable in ui.perfetto.dev, timed in simulated
// cycles. The two compose: both sinks see the same stream.
//
// -audit turns on the leakage audit layer: the translator records a
// provenance chain for every load it analyzes (which speculative load
// poisoned its address, along which data-flow path, under which guard)
// and gbrun prints the machine-wide explainability table after the run.
// -audit-json writes the same audit as a stable JSON document (schema
// ghostbusters/audit/v1); either flag enables collection. Auditing only
// costs translation time — the generated code is identical.
//
// -detect attaches the online attack-phase detector to the run's event
// stream and prints its verdict: whether the run showed the
// Flush+Reload shape (prime→trigger rounds over distinct cache lines),
// with the inferred phase timeline. -detect-json writes the verdict as
// a stable JSON document (schema ghostbusters/detect/v1); either flag
// enables detection. Detection composes with -traceout — the detector
// rides the same stream as the trace file, and the
// inferred phase/rounds/alarm tracks are appended to the trace so a
// Perfetto timeline shows the detection overlaid on the raw counters.
//
// -spans writes the host-side span timeline (assemble, load, run with
// its translate/execute split) as ghostbusters/span/v1 JSONL — host
// wall-clock nanoseconds, a second clock domain next to the simulated
// cycles. With `-traceout file -trace-format perfetto` the spans are
// also mirrored into the same Perfetto document as a separate process
// track, so one ui.perfetto.dev load shows the guest-cycle and host-ns
// timelines together.
//
// -tcache persists translated regions across runs (in the user cache
// dir, or under -tcache-dir): a warm run of the same program and
// configuration compiles nothing — `-stats -json` reports
// dbt.translations = 0 — while every guest-visible number stays
// bit-identical to a cold run. The cache's hit/miss summary goes to
// stderr on every exit.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (host-side performance, not guest cycles).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ghostbusters"
	"ghostbusters/internal/cli"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
)

func main() {
	t := cli.New("gbrun")
	mode := flag.String("mode", ghostbusters.ModeUnsafe.String(), "mitigation mode")
	interp := flag.Bool("interp", false, "interpreter only (no translation)")
	stats := flag.Bool("stats", false, "print machine statistics")
	jsonOut := flag.Bool("json", false, "with -stats, print the metrics snapshot as JSON instead of text")
	profile := flag.Bool("profile", false, "print the hottest translated regions by attributed cycles")
	t.WidthFlag()
	t.TraceFlags(true)
	t.AuditFlags()
	t.DetectFlags()
	t.ProfileFlags()
	t.TCacheFlags()
	t.SpanFlags()
	t.Parse()

	if flag.NArg() != 1 {
		t.UsageError("usage: gbrun [flags] program.s")
	}
	src, err := os.ReadFile(flag.Arg(0))
	t.Fail(err)
	m, err := ghostbusters.ParseMode(*mode)
	t.Fail(err)
	cfg := ghostbusters.WithMitigation(ghostbusters.DefaultConfig(), m)
	cfg.DisableTranslation = *interp
	// SIGINT/SIGTERM cancel the run through the machine's interrupt
	// hook: the dispatch loop notices within one poll window and Run
	// returns ErrInterrupted.
	cfg.Interrupt = t.Start(&cfg, "gbrun").Done()
	cfg.TransCache = t.TransCache()

	as := t.Root().Child("assemble", hspan.Str("file", flag.Arg(0)))
	prog, err := ghostbusters.Assemble(string(src))
	as.End()
	t.Fail(err)
	machine, err := ghostbusters.NewMachine(cfg)
	t.Fail(err)
	ls := t.Root().Child("load")
	t.Fail(machine.Load(prog))
	ls.End()
	rs := t.Root().Child("run", hspan.Str("mode", *mode))
	res, err := machine.Run()
	if err != nil {
		rs.End(hspan.Str("outcome", "error"))
		t.Fail(err)
	}
	harness.EndAttempt(rs, &harness.KernelRun{Cycles: machine.Cycles(), TransNS: machine.TranslateHostNS()})

	fmt.Printf("exit=%d cycles=%d instret=%d\n", res.Exit.Code, res.Cycles, res.Instret)
	if *profile {
		printProfile(machine, res.Cycles)
	}
	t.WriteAudit(machine.Audit())
	detectRep := t.Verdict()
	if detectRep != nil && t.Detect {
		fmt.Print(detectRep.Format())
	}
	if *stats {
		if *jsonOut {
			snap := res.Snapshot()
			if detectRep != nil {
				detectRep.AddMetrics(snap)
			}
			out, err := json.MarshalIndent(snap, "", "  ")
			t.Fail(err)
			fmt.Println(string(out))
		} else {
			s := res.Stats
			fmt.Printf("interp-insts=%d blocks=%d traces=%d block-execs=%d bundles=%d\n",
				s.InterpInsts, s.Blocks, s.Traces, s.BlockExecs, s.Bundles)
			fmt.Printf("spec-loads=%d squashed=%d recoveries=%d side-exits=%d\n",
				s.SpecLoads, s.SpecSquash, s.Recoveries, s.SideExits)
			fmt.Printf("patterns=%d risky-loads=%d guard-edges=%d compile-errors=%d\n",
				s.PatternsFound, s.RiskyLoads, s.GuardEdges, s.CompileErrs)
			fmt.Printf("traps=%s\n", s.Traps.String())
		}
	}
	// os.Exit skips deferred calls, so everything is flushed explicitly
	// before propagating the guest's exit code.
	t.Close()
	os.Exit(int(res.Exit.Code))
}

// printProfile ranks the translated regions by the simulated cycles
// attributed to them, with each region's share of the whole run.
func printProfile(machine *ghostbusters.Machine, total uint64) {
	fmt.Println("hottest translated regions (by attributed cycles):")
	for i, r := range machine.ProfileReport() {
		if i >= 10 {
			break
		}
		kind := "block"
		if r.IsTrace {
			kind = "trace"
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Cycles) / float64(total)
		}
		fmt.Printf("  %#010x %-6s %5.1f%% %10d cycles, %8d dispatches, %3d insts in %3d bundles\n",
			r.PC, kind, share, r.Cycles, r.Dispatches, r.GuestInsts, r.Bundles)
	}
}
