package dbt_test

import (
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/obs"
)

// traceRing is the ring capacity of the parity tracer: well above the
// events either PoC emits at obs.LevelSpec, so the ring never wraps.
const traceRing = 1 << 17

// A traced run takes the same chained path as an untraced one, so the
// chain links must be invisible in the trace: each PoC traced at
// obs.LevelSpec emits the same events with the links on and with a map
// lookup per transfer (DisableChaining). Only the translate-done Arg3,
// the host nanoseconds a translation took, may differ.
func TestTraceParityUnderChaining(t *testing.T) {
	run := func(v attack.Variant, disable bool) []obs.Event {
		cfg := dbt.DefaultConfig()
		cfg.DisableChaining = disable
		cfg.Tracer = obs.NewSized(obs.LevelSpec, nil, traceRing)
		if _, err := attack.Run(v, cfg, attack.Params{Secret: []byte{0x5A, 0xC3}}); err != nil {
			t.Fatalf("%s (chaining disabled=%v): %v", v, disable, err)
		}
		evs := cfg.Tracer.Events()
		if len(evs) >= traceRing {
			t.Fatalf("%s: %d events filled the ring; raise traceRing", v, len(evs))
		}
		for i := range evs {
			if evs[i].Kind == obs.EvTranslateDone {
				evs[i].Arg3 = 0
			}
		}
		return evs
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		on, off := run(v, false), run(v, true)
		if len(on) != len(off) {
			t.Errorf("%s: %d events chained, %d unchained", v, len(on), len(off))
		}
		for i := range min(len(on), len(off)) {
			if on[i] != off[i] {
				t.Errorf("%s: event %d differs:\nchained:   %+v\nunchained: %+v", v, i, on[i], off[i])
				break
			}
		}
		blocks := 0
		for _, e := range on {
			if e.Kind == obs.EvBlockEnter {
				blocks++
			}
		}
		if blocks == 0 {
			t.Errorf("%s: no translated block ran; the test exercised only the interpreter", v)
		}
	}
}
