// Command gbspectre runs the paper's Spectre proofs of concept on the
// simulated DBT-based processor:
//
//	gbspectre [-variant v1|v4] [-mode <mitigation>]
//	          [-secret hexbytes] [-protect] [-lineflush]
//	          [-traceout file] [-trace-format text|jsonl|perfetto]
//	          [-stats] [-json] [-audit] [-audit-json file]
//	          [-detect] [-detect-json file] [-spans file]
//	          [-matrix-json file]
//
// With no flags it runs both variants under every mitigation mode
// (the Section V-A matrix extended with the ported mitigation zoo);
// -matrix-json additionally writes the machine-readable leakage matrix
// (schema ghostbusters/leakmatrix/v1) with per-cell ground-truth bits
// leaked and slowdown versus unsafe. -traceout captures the attack's full event
// stream — block dispatches, speculative loads and squashes, cache
// flushes — timed in simulated cycles; with -trace-format perfetto the
// file loads directly in ui.perfetto.dev, making the transient window
// of the attack visible on a timeline.
//
// Every single-variant run prints the side-channel scoreboard: the
// ground truth of which secret-dependent cache lines the victim
// speculatively filled (bits leaked into the microarchitectural
// domain), alongside what the attacker's timing loop recovered. -stats
// prints the machine's counters; with -json the metrics snapshot is
// emitted in the same format as `gbrun -stats -json`, extended with the
// attack.* scoreboard metrics.
//
// -audit / -audit-json collect the poison-provenance audit during the
// attack and print the explainability table / write the JSON document
// (schema ghostbusters/audit/v1) — the mitigation explaining exactly
// which loads of the victim it pinned and why.
//
// -detect runs the online attack-phase detector against the attack's
// own event stream — the detector watching the attacker, with the
// scoreboard as ground truth: the verdict prints alongside the alarm's
// latency in cycles after the first secret-dependent speculative fill.
// -detect-json writes the verdict document (schema
// ghostbusters/detect/v1); either flag enables detection, and both
// compose with -traceout (the detection tracks are appended to the
// trace).
//
// -spans writes the attack's host-side span timeline as
// ghostbusters/span/v1 JSONL (host wall-clock nanoseconds). With
// `-traceout file -trace-format perfetto` the spans are also mirrored
// into the same Perfetto document on a second clock domain, so one
// file shows the attack's simulated-cycle events and its host-time
// cost side by side.
//
// Exit codes are the ones every run CLI shares (see internal/cli): 1
// for errors, including a single-run flag in matrix mode; 2 for usage
// errors; 3 when the attack died on a guest trap; 4 when SIGINT/SIGTERM
// cancelled it through the machine's interrupt hook — a -traceout
// stream is flushed first, so the partial trace survives.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ghostbusters"
	"ghostbusters/internal/cli"
	"ghostbusters/internal/hspan"
)

func main() {
	t := cli.New("gbspectre")
	variant := flag.String("variant", "", "v1 | v4 (empty = full matrix)")
	mode := flag.String("mode", ghostbusters.ModeUnsafe.String(), "mitigation mode")
	secretHex := flag.String("secret", "", "secret bytes in hex (empty = random)")
	protect := flag.Bool("protect", false, "read-protect the secret region")
	lineflush := flag.Bool("lineflush", false, "line-by-line cache flush (paper's RISC-V variant)")
	stats := flag.Bool("stats", false, "print machine statistics after the attack")
	jsonOut := flag.Bool("json", false, "with -stats, print the metrics snapshot (machine + attack.*) as JSON")
	matrixJSON := flag.String("matrix-json", "", "matrix mode: write the leakage matrix as JSON (schema ghostbusters/leakmatrix/v1) to this file")
	t.TraceFlags(false)
	t.AuditFlags()
	t.DetectFlags()
	t.SpanFlags()
	t.Parse()

	cfg := ghostbusters.DefaultConfig()

	if *variant == "" {
		// Matrix mode fixes its own variants, modes and parameters, so
		// every single-run flag is meaningless here. Reject them all at
		// once — flag.Visit walks only explicitly-set flags, in
		// lexicographical order, so the error is complete and stable
		// rather than whichever map key a range happened to yield.
		singleRunOnly := map[string]bool{
			"audit": true, "audit-json": true, "detect": true,
			"detect-json": true, "json": true, "lineflush": true,
			"mode": true, "protect": true, "secret": true, "spans": true,
			"stats": true, "trace-format": true, "traceout": true,
		}
		var offending []string
		flag.Visit(func(f *flag.Flag) {
			if singleRunOnly[f.Name] {
				offending = append(offending, "-"+f.Name)
			}
		})
		if len(offending) > 0 {
			verb := "needs"
			if len(offending) > 1 {
				verb = "need"
			}
			t.Fail(fmt.Errorf("%s %s a single run: pick a -variant", strings.Join(offending, ", "), verb))
		}
		ctx := t.Start(&cfg, "")
		table, lm, err := (&ghostbusters.Runner{}).PoCMatrix(ctx, cfg)
		t.Fail(err)
		fmt.Print(table)
		if *matrixJSON != "" {
			out, err := lm.JSON()
			t.Fail(err)
			t.Fail(os.WriteFile(*matrixJSON, out, 0o644))
		}
		t.Close()
		return
	}
	if *matrixJSON != "" {
		t.Fail(fmt.Errorf("-matrix-json applies to the matrix: drop -variant"))
	}

	var v ghostbusters.AttackVariant
	switch *variant {
	case "v1":
		v = ghostbusters.SpectreV1
	case "v4":
		v = ghostbusters.SpectreV4
	default:
		t.Fail(fmt.Errorf("unknown variant %q", *variant))
	}
	m, err := ghostbusters.ParseMode(*mode)
	t.Fail(err)

	params := ghostbusters.AttackParams{ProtectSecret: *protect}
	if *lineflush {
		params.Flush = ghostbusters.FlushLineByLine
	}
	if *secretHex != "" {
		b, err := hex.DecodeString(*secretHex)
		t.Fail(err)
		params.Secret = b
	}

	cfg.Interrupt = t.Start(&cfg, "gbspectre", hspan.Str("variant", *variant), hspan.Str("mode", *mode)).Done()
	as := t.Root().Child("attack")
	res, err := ghostbusters.RunAttack(v, ghostbusters.WithMitigation(cfg, m), params)
	if err != nil {
		// Fail flushes the trace first, so a partial trace of the
		// failing run survives for inspection.
		as.End(hspan.Str("outcome", "error"))
		t.Fail(err)
	}
	as.End(hspan.Int("cycles", int64(res.Cycles)), hspan.Int("bytes_leaked", int64(res.BytesCorrect)))
	detectRep := t.Verdict()
	fmt.Printf("%s under %s\n", res.Variant, m)
	fmt.Printf("  secret:    %x\n", res.Secret)
	fmt.Printf("  recovered: %x\n", res.Recovered)
	fmt.Printf("  leaked %d/%d bytes in %d cycles\n", res.BytesCorrect, len(res.Secret), res.Cycles)
	fmt.Printf("  speculative loads %d, MCB recoveries %d, patterns detected %d\n",
		res.Stats.SpecLoads, res.Stats.Recoveries, res.Stats.PatternsFound)
	if res.Success() {
		fmt.Println("  => the secret LEAKED")
	} else {
		fmt.Println("  => the attack FAILED")
	}
	fmt.Println("side-channel scoreboard:")
	fmt.Print(indent(res.Leakage.String()))
	if detectRep != nil {
		fmt.Println("online detection:")
		fmt.Print(indent(detectRep.Format()))
		if detectRep.Alarm && res.Leakage.FirstSecretFillCycle != 0 {
			fmt.Printf("  alarm latency: %+d cycles vs the first secret-dependent speculative fill\n",
				int64(detectRep.AlarmCycle)-int64(res.Leakage.FirstSecretFillCycle))
		}
	}
	t.WriteAudit(res.Audit)
	if *stats {
		snap := res.Stats.Snapshot(res.Cycles)
		res.Leakage.AddMetrics(snap)
		if detectRep != nil {
			detectRep.AddMetrics(snap)
		}
		if *jsonOut {
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
		}
	}
	t.Close()
}

// indent prefixes every line with two spaces, matching the rest of the
// report.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
