// Package explore is the exhaustive failure-schedule explorer: it exploits
// the byte-deterministic simulation kernel to enumerate crash schedules for
// small n over event-index boundaries — model-checking depth at
// bench-harness speed — and checks protocol invariants on every branch's
// terminal state.
//
// The decision-point model: a crash-free probe run records, via a
// step-boundary probe (sim.SetStepProbe) and the structured trace stream,
// the step indices right after every protocol-relevant event — application
// frame receipts, checkpoint/snapshot commits, stable-storage writes. Each
// (decision point × victim) pair becomes a branch: a fresh instance of the
// identical scenario re-run with sim.CrashAtStep landing the crash exactly
// between two events. Branches themselves record the step indices of
// recovery-phase transitions (restore, announce, gather, replay, restart),
// which seed a bounded second level of schedules whose second crash lands
// *inside* an in-progress recovery; a seeded-random frontier on top draws
// multi-crash schedules from the same candidate pool.
//
// The invariant catalog, checked on every branch:
//
//   - orphan-freedom / family safety: the harness's end-state checker
//     (cluster.Check: per-process liveness for every family, plus orphan
//     deliveries, exactly-once, replay fidelity, and non-intrusion for FBL),
//     and the workload completing within the horizon;
//   - state fidelity: terminal application digests must equal the
//     crash-free baseline's (the workloads are deterministic, so any loss,
//     duplication, or reordering of deliveries diverges the digest);
//   - output-commit safety: no output may be re-requested with different
//     content after its release (output.Ledger.SetOnConflict) — the
//     externally-visible inconsistency the commit rules exist to prevent;
//   - prefix fidelity: a branch's event stream before its first crash must
//     be byte-identical to the probe run's prefix (rolling step-stream
//     hash), pinning that schedules only diverge *at* the injected fault;
//   - bounded recovery: a branch must finish within BudgetFactor× the
//     baseline event count — a runaway retry/replay storm is a liveness
//     bug even when the state eventually converges;
//   - no panic: a protocol panic ends the branch and is its violation.
//
// Every violation is minimized (greedy crash-removal while the violation
// reproduces) and emitted as a replayable counterexample: the exact
// failure.Plan plus the full Spec, which Replay re-executes to a
// byte-identical branch fingerprint.
package explore

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/wire"
)

// Family selects the protocol family under exploration: the harness's own
// selector, so a Spec's family names the cluster it builds.
type Family = cluster.Family

const (
	FamilyFBL         = cluster.FamilyFBL
	FamilyCoordinated = cluster.FamilyCoordinated
	FamilyOptimistic  = cluster.FamilyOptimistic
)

// Families returns every explorable family, in canonical order.
func Families() []Family { return []Family{FamilyFBL, FamilyCoordinated, FamilyOptimistic} }

// Spec parameterizes one exploration. The zero value of most fields selects
// a sensible default (see withDefaults); Family is required.
type Spec struct {
	// Family is the protocol family; Style further selects the FBL recovery
	// style (ignored by the other families).
	Family Family         `json:"family"`
	Style  recovery.Style `json:"style"`
	// N is the cluster size, F the FBL failure budget (F >= N selects the
	// f = n storage-backed instance).
	N int `json:"n"`
	F int `json:"f"`
	// Seed drives the scenario; every branch replays it exactly.
	Seed int64 `json:"seed"`
	// Horizon is the virtual-time budget of every branch. SettleSlack is
	// reserved at the tail: decision points are only taken from the first
	// Horizon-SettleSlack so every injected recovery has room to finish.
	Horizon     time.Duration `json:"horizon"`
	SettleSlack time.Duration `json:"settle_slack"`
	// CheckpointEvery is the family's periodic-commit knob: FBL checkpoint
	// interval, coordinated snapshot period, optimistic flush period.
	CheckpointEvery time.Duration `json:"checkpoint_every"`
	// MaxPoints caps the decision points (deterministic even subsample).
	MaxPoints int `json:"max_points"`
	// MaxCrashes bounds the crashes per schedule: 1 explores every single-
	// crash branch; >= 2 additionally aims second crashes inside the
	// recoveries observed on first-level branches (capped by DeepBranches).
	MaxCrashes   int `json:"max_crashes"`
	DeepBranches int `json:"deep_branches"`
	// Random adds that many seeded-random multi-crash branches on top of
	// the bounded-exhaustive pass.
	Random     int   `json:"random"`
	RandomSeed int64 `json:"random_seed"`
	// BudgetFactor bounds every branch's event count at
	// BudgetFactor*baseline + slack (the bounded-recovery invariant).
	BudgetFactor int `json:"budget_factor"`
}

func (s Spec) withDefaults() Spec {
	if s.N == 0 {
		s.N = 3
	}
	if s.F == 0 {
		s.F = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Horizon == 0 {
		s.Horizon = 12 * time.Second
	}
	if s.SettleSlack == 0 {
		s.SettleSlack = 6 * time.Second
	}
	if s.CheckpointEvery == 0 {
		switch s.Family {
		case FamilyCoordinated:
			s.CheckpointEvery = 1500 * time.Millisecond
		case FamilyOptimistic:
			s.CheckpointEvery = 400 * time.Millisecond
		default:
			s.CheckpointEvery = 2 * time.Second
		}
	}
	if s.MaxPoints == 0 {
		s.MaxPoints = 36
	}
	if s.MaxCrashes == 0 {
		s.MaxCrashes = 1
	}
	if s.DeepBranches == 0 {
		s.DeepBranches = 48
	}
	if s.Random > 0 && s.RandomSeed == 0 {
		s.RandomSeed = s.Seed + 1
	}
	if s.BudgetFactor == 0 {
		s.BudgetFactor = 4
	}
	return s
}

// Report is the outcome of one exploration.
type Report struct {
	Spec            Spec             `json:"spec"`
	Points          int              `json:"points"`
	Branches        int              `json:"branches"`
	Violations      int              `json:"violations"`
	BaselineEvents  int64            `json:"baseline_events"`
	Fingerprint     uint64           `json:"fingerprint"`
	Counterexamples []Counterexample `json:"counterexamples,omitempty"`
	// Stats is not part of the report's JSON: cmd/explore -stats prints it.
	Stats Stats `json:"-"`
}

// Stats totals what the runs behind a report did: the probe run and every
// branch (a violation's minimization reruns are not counted).
type Stats struct {
	Runs       int
	Events     int64
	Frames     int64 // sent by the application processes, every kind
	Heartbeats int64 // the wire.KindHeartbeat ones among them
}

func (s *Stats) add(res *branchResult) {
	s.Runs++
	s.Events += res.events
	s.Frames += res.frames
	s.Heartbeats += res.heartbeats
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// foldStep accumulates one StepInfo into a rolling stream hash.
func foldStep(h uint64, s sim.StepInfo) uint64 {
	h = mix(h, uint64(s.Step))
	h = mix(h, uint64(s.At))
	h = mix(h, uint64(s.Kind))
	h = mix(h, uint64(uint32(s.Proc)))
	return h
}

// branchResult is everything one branch run yields.
type branchResult struct {
	fingerprint   uint64
	events        int64
	frames        int64 // sent by the application processes
	heartbeats    int64
	digests       []uint64
	conflicts     []string
	famErrs       []string
	points        []point
	recSteps      []int64
	prefix        []uint64 // probe run only: prefix[i] = hash of steps < i
	prefixCut     uint64   // branch runs: hash of steps < first crash step
	cutSeen       bool
	stateFidelity bool // compare digests against the baseline (see scenario)
}

// runBranch builds a fresh instance of the spec's scenario, applies the
// plan, runs it to the horizon, and collects the terminal evidence.
// recordAll additionally keeps the decision points and the full per-step
// prefix-hash array (the probe run needs them; branches only need the hash
// at their own cut). A protocol panic ends the branch where it struck and is
// its one violation, "panic: <value>": the value, not a stack frame, because
// a panic on a shard is re-raised with the original stack already gone. Its
// fingerprint is the step stream up to the panic, so Replay reproduces it.
func runBranch(ctx context.Context, spec Spec, plan failure.Plan, recordAll bool) (res *branchResult, err error) {
	in := build(spec, recordAll)
	res = &branchResult{}
	cut := int64(-1)
	for _, cr := range plan {
		if cr.Step > 0 && (cut < 0 || cr.Step < cut) {
			cut = cr.Step
		}
	}
	h := uint64(fnvOffset)
	in.c.Kernel().SetStepProbe(func(s sim.StepInfo) {
		if recordAll {
			res.prefix = append(res.prefix, h)
		}
		if s.Step == cut {
			res.prefixCut, res.cutSeen = h, true
		}
		h = foldStep(h, s)
	})
	in.c.ApplyPlan(plan)
	defer func() {
		if r := recover(); r != nil {
			res.events = in.c.Kernel().Steps()
			res.famErrs = []string{fmt.Sprint("panic: ", r)}
			res.points, res.recSteps = in.tracer.points, in.tracer.recSteps
			res.fingerprint = h
		}
	}()
	if _, err := in.c.RunContext(ctx, spec.Horizon); err != nil {
		return nil, err
	}
	res.events = in.c.Kernel().Steps()
	res.digests = in.c.Digests()
	res.conflicts = in.conflicts
	for _, err := range in.c.Check() {
		res.famErrs = append(res.famErrs, err.Error())
	}
	for i := 0; i < spec.N; i++ {
		if a := in.c.App(ids.ProcID(i)); a != nil && !a.Done() {
			res.famErrs = append(res.famErrs, fmt.Sprintf("liveness: proc %d workload incomplete at horizon", i))
		}
		sent := &in.c.Metrics(ids.ProcID(i)).MsgsSent
		for _, c := range sent {
			res.frames += c
		}
		res.heartbeats += sent[wire.KindHeartbeat]
	}
	res.points = in.tracer.points
	res.recSteps = in.tracer.recSteps
	res.stateFidelity = scenarios[spec.Family].stateFidelity
	res.fingerprint = h
	for _, d := range res.digests {
		res.fingerprint = mix(res.fingerprint, d)
	}
	return res, nil
}

// checkBranch evaluates the invariant catalog for one branch against the
// crash-free baseline. It returns every violation found.
func checkBranch(base, res *branchResult, plan failure.Plan, budget int64) []string {
	var v []string
	v = append(v, res.famErrs...)
	for _, c := range res.conflicts {
		v = append(v, "output-commit: "+c)
	}
	if res.stateFidelity {
		if len(res.digests) != len(base.digests) {
			v = append(v, "state-fidelity: digest cardinality diverged")
		} else {
			for i := range res.digests {
				if res.digests[i] != base.digests[i] {
					v = append(v, fmt.Sprintf(
						"state-fidelity: proc %d terminal digest %#x diverges from crash-free %#x",
						i, res.digests[i], base.digests[i]))
				}
			}
		}
	}
	cut := int64(-1)
	for _, cr := range plan {
		if cr.Step > 0 && (cut < 0 || cr.Step < cut) {
			cut = cr.Step
		}
	}
	if cut >= 0 && res.cutSeen && cut < int64(len(base.prefix)) && res.prefixCut != base.prefix[cut] {
		v = append(v, fmt.Sprintf(
			"prefix-fidelity: event stream before crash step %d diverged from the probe run (%#x vs %#x)",
			cut, res.prefixCut, base.prefix[cut]))
	}
	if res.events > budget {
		v = append(v, fmt.Sprintf(
			"bounded-recovery: branch processed %d events, budget %d (baseline %d)",
			res.events, budget, base.events))
	}
	return v
}

// selectPoints canonicalizes (sort by step, dedupe) and evenly subsamples
// the candidate decision points down to max.
func selectPoints(ps []point, max int) []point {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Step < ps[j].Step })
	out := ps[:0]
	var last int64 = -1
	for _, p := range ps {
		if p.Step != last {
			out = append(out, p)
			last = p.Step
		}
	}
	if len(out) <= max {
		return append([]point(nil), out...)
	}
	sub := make([]point, 0, max)
	for i := 0; i < max; i++ {
		sub = append(sub, out[i*len(out)/max])
	}
	return sub
}

// dedupeSteps canonicalizes a recovery-transition step list.
func dedupeSteps(ss []int64) []int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	out := ss[:0]
	var last int64 = -1
	for _, s := range ss {
		if s != last {
			out = append(out, s)
			last = s
		}
	}
	return append([]int64(nil), out...)
}

// Run explores the spec and returns the report. It is deterministic: two
// runs of the same spec produce byte-identical reports (the double-run CI
// gate relies on it).
func Run(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	base, err := runBranch(ctx, spec, nil, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{Spec: spec, BaselineEvents: base.events, Fingerprint: base.fingerprint}
	rep.Stats.add(base)
	if bad := append(append([]string(nil), base.famErrs...), base.conflicts...); len(bad) > 0 {
		// The crash-free probe run itself is inconsistent: exploring crash
		// schedules on top of a broken baseline is meaningless, so report
		// the empty schedule as the counterexample and stop.
		rep.Violations = 1
		rep.Counterexamples = append(rep.Counterexamples, Counterexample{
			Spec: spec, Violations: bad,
			Fingerprint: base.fingerprint, Events: base.events,
		})
		return rep, nil
	}

	points := selectPoints(base.points, spec.MaxPoints)
	rep.Points = len(points)
	budget := base.events*int64(spec.BudgetFactor) + 20_000
	r := &runner{spec: spec, base: base, budget: budget, rep: rep, fp: base.fingerprint}

	// Level 1: bounded-exhaustive single crashes — every decision point ×
	// every application process.
	type firstBranch struct {
		plan     failure.Plan
		recSteps []int64
	}
	var firsts []firstBranch
	for _, pt := range points {
		for v := 0; v < spec.N; v++ {
			plan := failure.Plan{{Step: pt.Step, Proc: ids.ProcID(v)}}
			res, err := r.branch(ctx, plan)
			if err != nil {
				return nil, err
			}
			if spec.MaxCrashes >= 2 && len(res.recSteps) > 0 {
				firsts = append(firsts, firstBranch{plan: plan, recSteps: dedupeSteps(res.recSteps)})
			}
		}
	}

	// Level 2: aim a second crash inside the recoveries the first level
	// exposed. Round-robin across first-level branches so the deep budget
	// spreads over distinct recoveries instead of exhausting one.
	if spec.MaxCrashes >= 2 {
		deep := 0
		for idx := 0; deep < spec.DeepBranches; idx++ {
			progressed := false
			for _, fb := range firsts {
				if idx >= len(fb.recSteps) || deep >= spec.DeepBranches {
					continue
				}
				progressed = true
				step := fb.recSteps[idx]
				for v := 0; v < spec.N && deep < spec.DeepBranches; v++ {
					plan := append(append(failure.Plan(nil), fb.plan...),
						failure.Crash{Step: step, Proc: ids.ProcID(v)})
					if _, err := r.branch(ctx, plan); err != nil {
						return nil, err
					}
					deep++
				}
			}
			if !progressed {
				break
			}
		}
	}

	// Seeded-random frontier: multi-crash schedules drawn from the same
	// candidate pool, deterministic per RandomSeed.
	if spec.Random > 0 && len(points) > 0 {
		rng := rand.New(rand.NewSource(spec.RandomSeed))
		for i := 0; i < spec.Random; i++ {
			k := 1 + rng.Intn(spec.MaxCrashes)
			var plan failure.Plan
			for j := 0; j < k; j++ {
				pt := points[rng.Intn(len(points))]
				plan = append(plan, failure.Crash{Step: pt.Step, Proc: ids.ProcID(rng.Intn(spec.N))})
			}
			if _, err := r.branch(ctx, plan.Sorted()); err != nil {
				return nil, err
			}
		}
	}

	rep.Fingerprint = r.fp
	return rep, nil
}

// MustRun is Run, panicking on context/runtime error (test convenience).
func MustRun(ctx context.Context, spec Spec) *Report {
	rep, err := Run(ctx, spec)
	if err != nil {
		panic(err)
	}
	return rep
}

// runner threads the exploration state through branch launches.
type runner struct {
	spec   Spec
	base   *branchResult
	budget int64
	rep    *Report
	fp     uint64
}

// branch runs one schedule, folds its fingerprint into the report, and —
// when the invariants are violated — minimizes the schedule and records a
// replayable counterexample.
func (r *runner) branch(ctx context.Context, plan failure.Plan) (*branchResult, error) {
	res, err := runBranch(ctx, r.spec, plan, false)
	if err != nil {
		return nil, err
	}
	r.rep.Branches++
	r.rep.Stats.add(res)
	r.fp = mix(r.fp, res.fingerprint)
	if viol := checkBranch(r.base, res, plan, r.budget); len(viol) > 0 {
		r.rep.Violations++
		minPlan, minRes, minViol, err := r.minimize(ctx, plan, res, viol)
		if err != nil {
			return nil, err
		}
		r.rep.Counterexamples = append(r.rep.Counterexamples, Counterexample{
			Spec:        r.spec,
			Plan:        minPlan,
			Violations:  minViol,
			Fingerprint: minRes.fingerprint,
			Events:      minRes.events,
		})
	}
	return res, nil
}

// minimize greedily removes crashes while the schedule still violates some
// invariant, yielding the smallest reproducing sub-schedule.
func (r *runner) minimize(ctx context.Context, plan failure.Plan, res *branchResult, viol []string) (failure.Plan, *branchResult, []string, error) {
	cur, curRes, curViol := plan, res, viol
	for changed := true; changed && len(cur) > 1; {
		changed = false
		for i := range cur {
			cand := append(append(failure.Plan(nil), cur[:i]...), cur[i+1:]...)
			candRes, err := runBranch(ctx, r.spec, cand, false)
			if err != nil {
				return nil, nil, nil, err
			}
			if cv := checkBranch(r.base, candRes, cand, r.budget); len(cv) > 0 {
				cur, curRes, curViol = cand, candRes, cv
				changed = true
				break
			}
		}
	}
	return cur, curRes, curViol, nil
}
