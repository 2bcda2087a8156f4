package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rollrec/internal/failure"
)

// Counterexample is a replayable violation: the full Spec plus the exact
// crash schedule, enough to rebuild the scenario from scratch and land the
// same crashes at the same event boundaries. Fingerprint and Events pin the
// branch the explorer observed; Replay checks a fresh execution against
// both byte-for-byte.
type Counterexample struct {
	Spec        Spec         `json:"spec"`
	Plan        failure.Plan `json:"plan"`
	Violations  []string     `json:"violations"`
	Fingerprint uint64       `json:"fingerprint"`
	Events      int64        `json:"events"`
}

// String renders a one-glance summary.
func (cx Counterexample) String() string {
	s := fmt.Sprintf("%s/%s n=%d seed=%d: %d crash(es)", cx.Spec.Family, cx.Spec.Style, cx.Spec.N, cx.Spec.Seed, len(cx.Plan))
	for _, cr := range cx.Plan {
		if cr.Step > 0 {
			s += fmt.Sprintf(" [proc %d @ step %d]", cr.Proc, cr.Step)
		} else {
			s += fmt.Sprintf(" [proc %d @ t=%v]", cr.Proc, cr.At)
		}
	}
	for _, v := range cx.Violations {
		s += "\n  - " + v
	}
	return s
}

// ReplayResult is the verdict of re-executing a counterexample.
type ReplayResult struct {
	// Fingerprint and Events are the fresh execution's values.
	Fingerprint uint64 `json:"fingerprint"`
	Events      int64  `json:"events"`
	// Violations is the fresh execution's violation list.
	Violations []string `json:"violations"`
	// FingerprintMatch reports that the fresh branch was byte-identical to
	// the one the explorer recorded; Reproduced that it still violates the
	// invariants.
	FingerprintMatch bool `json:"fingerprint_match"`
	Reproduced       bool `json:"reproduced"`
}

// Replay re-executes a counterexample from scratch: a fresh crash-free
// probe run re-derives the baseline, then the recorded plan runs as a
// branch and is re-checked against the invariant catalog. Determinism of
// the kernel makes this exact — FingerprintMatch is a byte-identity claim,
// not a statistical one. A spec or plan no exploration could have written —
// an unknown family, a victim outside the cluster — is an error.
func Replay(ctx context.Context, cx Counterexample) (*ReplayResult, error) {
	spec := cx.Spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	base, err := runBranch(ctx, spec, nil, true)
	if err != nil {
		return nil, err
	}
	budget := base.events*int64(spec.BudgetFactor) + 20_000
	if len(cx.Plan) == 0 {
		// Probe-run counterexample: the violation is in the crash-free
		// execution itself.
		return &ReplayResult{
			Fingerprint:      base.fingerprint,
			Events:           base.events,
			Violations:       base.famErrs,
			FingerprintMatch: base.fingerprint == cx.Fingerprint,
			Reproduced:       len(base.famErrs) > 0,
		}, nil
	}
	res, err := runBranch(ctx, spec, cx.Plan, false)
	if err != nil {
		return nil, err
	}
	viol := checkBranch(base, res, cx.Plan, budget)
	return &ReplayResult{
		Fingerprint:      res.fingerprint,
		Events:           res.events,
		Violations:       viol,
		FingerprintMatch: res.fingerprint == cx.Fingerprint,
		Reproduced:       len(viol) > 0,
	}, nil
}

// SaveCounterexample writes a counterexample as pretty-printed JSON.
func SaveCounterexample(path string, cx Counterexample) error {
	data, err := json.MarshalIndent(cx, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCounterexample reads a counterexample written by SaveCounterexample.
func LoadCounterexample(path string) (Counterexample, error) {
	var cx Counterexample
	data, err := os.ReadFile(path)
	if err != nil {
		return cx, err
	}
	if err := json.Unmarshal(data, &cx); err != nil {
		return cx, fmt.Errorf("explore: parsing %s: %w", path, err)
	}
	return cx, nil
}
