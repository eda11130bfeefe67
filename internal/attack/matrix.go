package attack

import (
	"encoding/json"
	"fmt"
)

// LeakMatrixSchema versions the machine-readable leakage matrix. Fields
// are never renamed, only added (the same compatibility rule the
// metrics snapshots follow), so CI validators stay valid.
const LeakMatrixSchema = "ghostbusters/leakmatrix/v1"

// LeakCell is one (variant × mitigation) cell of the leakage matrix:
// the ground-truth leakage from the side-channel scoreboard plus the
// attack's cost under that mitigation.
type LeakCell struct {
	Variant string `json:"variant"`
	Mode    string `json:"mode"`

	// Ground truth from the scoreboard (speculative secret-dependent
	// cache fills), independent of the attacker's timing recovery.
	SecretBytes int `json:"secret_bytes"`
	LeakedBytes int `json:"leaked_bytes"`
	BitsLeaked  int `json:"bits_leaked"`

	// BytesCorrect is what the attacker's timing loop recovered.
	BytesCorrect int `json:"bytes_correct"`

	// Cycles is the full attack run under this mitigation; Slowdown is
	// relative to the unsafe baseline of the same variant (0 when the
	// matrix has no unsafe cell to normalise against).
	Cycles   uint64  `json:"cycles"`
	Slowdown float64 `json:"slowdown"`
}

// LeakMatrix is the variants × mitigations leakage matrix the ROADMAP
// asks for: every cell reports slowdown and ground-truth bits leaked.
// The harness's Runner.PoCMatrix builds it from a matrix sweep.
type LeakMatrix struct {
	Schema string     `json:"schema"`
	Cells  []LeakCell `json:"cells"`
}

// JSON renders the matrix with stable indentation for CI artifacts.
func (m *LeakMatrix) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("attack: encoding leak matrix: %w", err)
	}
	return append(out, '\n'), nil
}
