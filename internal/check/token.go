package check

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// tokenPayload is the self-contained description of one execution: the
// full configuration plus the schedule. Together with the simulator's
// determinism it reproduces a run bit-for-bit.
type tokenPayload struct {
	V     int      `json:"v"`
	Cfg   Config   `json:"cfg"`
	Sched schedule `json:"sched"`
}

// encodeToken serializes a (config, schedule) pair as a replay token.
func encodeToken(cfg Config, spec schedule) string {
	b, err := json.Marshal(tokenPayload{V: 1, Cfg: cfg, Sched: spec})
	if err != nil {
		panic("check: token encode: " + err.Error())
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// DecodeToken parses a replay token back into its configuration (useful
// for reporting what a token contains without running it).
func DecodeToken(token string) (Config, error) {
	p, err := decodeToken(token)
	return p.Cfg, err
}

func decodeToken(token string) (tokenPayload, error) {
	var p tokenPayload
	b, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return p, fmt.Errorf("check: bad token encoding: %w", err)
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("check: bad token payload: %w", err)
	}
	if p.V != 1 {
		return p, fmt.Errorf("check: unsupported token version %d", p.V)
	}
	switch p.Sched.Kind {
	case "prefix", "walk":
	default:
		return p, fmt.Errorf("check: unknown schedule kind %q", p.Sched.Kind)
	}
	return p, nil
}

// Replay deterministically re-executes the single schedule a token
// describes and reports whether the violation reproduces.
func Replay(token string) (Report, error) {
	p, err := decodeToken(token)
	if err != nil {
		return Report{}, err
	}
	cfg := p.Cfg.withDefaults()
	rep := Report{Config: cfg}
	mcfg, hcfg := systemConfig(cfg)
	rep.Violation = explorerOn(cfg, htm.NewSystem(machine.New(mcfg), hcfg)).runRecorded(p.Sched, &rep)
	return rep, nil
}
