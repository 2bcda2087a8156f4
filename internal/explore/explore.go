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
// which seed bounded deeper levels of schedules, each of whose next crash
// lands *inside* a recovery in progress after the last one; a seeded-random
// frontier on top draws multi-crash schedules from the same candidate pool.
//
// The invariant catalog, checked on every branch:
//
//   - orphan-freedom / family safety: the harness's end-state checker
//     (cluster.Check: per-process liveness and output-commit safety for
//     every family — no output re-requested with different content after
//     its release, the externally-visible inconsistency the commit rules
//     exist to prevent — plus orphan deliveries, exactly-once, replay
//     fidelity, and non-intrusion for FBL), and the workload completing
//     within the horizon;
//   - state fidelity: terminal application digests must equal the
//     crash-free baseline's (the workloads are deterministic, so any loss,
//     duplication, or reordering of deliveries diverges the digest);
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
	"runtime"
	"sort"
	"sync"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/experiments"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/pool"
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
	// crash branch; each further level, up to MaxCrashes, aims one more
	// crash inside the recoveries observed on the level before's branches,
	// after their last crash (DeepBranches caps each level).
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
	Windows    int64 // the coordinator's windows (sim.Sharded.Windows)
	Frames     int64 // sent by the application processes, every kind
	Heartbeats int64 // the wire.KindHeartbeat ones among them
}

func (s *Stats) add(res *branchResult) {
	s.Runs++
	s.Events += res.events
	s.Windows += res.windows
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
	windows       int64
	frames        int64 // sent by the application processes
	heartbeats    int64
	digests       []uint64
	famErrs       []string
	points        []int64
	recSteps      []int64
	prefix        []uint64 // probe run only: prefix[i] = hash of steps < i
	prefixCut     uint64   // branch runs: hash of steps < first crash step
	cutSeen       bool
	stateFidelity bool // compare digests against the baseline (see scenario)
}

// runBranch runs a branch on a fresh build of the spec's scenario (runOn).
func runBranch(ctx context.Context, spec Spec, plan failure.Plan, recordAll bool) (*branchResult, error) {
	res, _, err := runOn(ctx, new(experiments.Result), spec, plan, recordAll)
	return res, err
}

// runOn resets run to the spec's scenario — a zero Result is built afresh,
// one an earlier branch of the same spec ran keeps its arenas —, applies the
// plan, runs it to the horizon, and collects the terminal evidence. It
// reports whether the branch ended normally, so that run may be reset for
// another; after a panic or an error it may not.
// recordAll additionally keeps the decision points and the full per-step
// prefix-hash array (the probe run needs them; branches only need the hash
// at their own cut). A protocol panic ends the branch where it struck and is
// its one violation, "panic: <value>": the value, not a stack frame, because
// a panic on a shard is re-raised with the original stack already gone. Its
// fingerprint is the step stream up to the panic, so Replay reproduces it.
func runOn(ctx context.Context, run *experiments.Result, spec Spec, plan failure.Plan, recordAll bool) (res *branchResult, normal bool, err error) {
	tr, err := build(run, spec, plan, recordAll)
	if err != nil {
		return nil, false, err
	}
	c := run.C
	res = &branchResult{}
	cut := firstStep(plan)
	h := uint64(fnvOffset)
	c.Kernel().SetStepProbe(func(s sim.StepInfo) {
		if recordAll {
			res.prefix = append(res.prefix, h)
		}
		if s.Step == cut {
			res.prefixCut, res.cutSeen = h, true
		}
		h = foldStep(h, s)
	})
	defer func() {
		if r := recover(); r != nil {
			res.events, res.windows = c.Kernel().Steps(), c.K.Windows().Total()
			res.famErrs = []string{fmt.Sprint("panic: ", r)}
			res.points, res.recSteps = tr.points, tr.recSteps
			res.fingerprint = h
			normal = false
		}
	}()
	if _, err := c.RunContext(ctx, spec.Horizon); err != nil {
		return nil, false, err
	}
	res.events, res.windows = c.Kernel().Steps(), c.K.Windows().Total()
	res.digests = c.Digests()
	for _, err := range c.Check() {
		res.famErrs = append(res.famErrs, err.Error())
	}
	for i := 0; i < spec.N; i++ {
		if a := c.App(ids.ProcID(i)); a != nil && !a.Done() {
			res.famErrs = append(res.famErrs, fmt.Sprintf("liveness: proc %d workload incomplete at horizon", i))
		}
		sent := &c.Metrics(ids.ProcID(i)).MsgsSent
		for _, n := range sent {
			res.frames += n
		}
		res.heartbeats += sent[wire.KindHeartbeat]
	}
	res.points = tr.points
	res.recSteps = tr.recSteps
	res.stateFidelity = scenarios[spec.Family].stateFidelity
	res.fingerprint = h
	for _, d := range res.digests {
		res.fingerprint = mix(res.fingerprint, d)
	}
	return res, true, nil
}

// checkBranch evaluates the invariant catalog for one branch against the
// crash-free baseline. It returns every violation found.
func checkBranch(base, res *branchResult, plan failure.Plan, budget int64) []string {
	var v []string
	v = append(v, res.famErrs...)
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
	if cut := firstStep(plan); cut >= 0 && res.cutSeen && cut < int64(len(base.prefix)) && res.prefixCut != base.prefix[cut] {
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

// firstStep is the plan's earliest crash step, or -1 if none is
// step-indexed.
func firstStep(plan failure.Plan) int64 {
	cut := int64(-1)
	for _, cr := range plan {
		if cr.Step > 0 && (cut < 0 || cr.Step < cut) {
			cut = cr.Step
		}
	}
	return cut
}

// selectPoints canonicalizes (sort, dedupe) and evenly subsamples the
// candidate decision points down to max.
func selectPoints(steps []int64, max int) []int64 {
	out := dedupeSteps(steps)
	if len(out) <= max {
		return out
	}
	sub := make([]int64, 0, max)
	for i := 0; i < max; i++ {
		sub = append(sub, out[i*len(out)/max])
	}
	return sub
}

// dedupeSteps canonicalizes a step list: sorted, each step once, in a fresh
// slice.
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

// validate rejects an exploration no branch can run — a missing or unknown
// family, a negative count or slack, a horizon that leaves no room for
// decision points — before any branch worker starts. The run itself (size,
// style, failure budget, checkpoint interval, the plan) is refused by
// experiments.Spec.Validate, when a branch is built.
func (s Spec) validate() error {
	if _, ok := scenarios[s.Family]; !ok {
		return fmt.Errorf("explore: unknown family %q (want fbl, coordinated or optimistic)", s.Family)
	}
	if s.MaxPoints < 0 || s.MaxCrashes < 0 || s.DeepBranches < 0 || s.Random < 0 || s.BudgetFactor < 0 ||
		s.SettleSlack < 0 {
		return fmt.Errorf("explore: negative count or duration in %+v", s)
	}
	if s.Horizon <= s.SettleSlack { // decision points come from [0, Horizon-SettleSlack)
		return fmt.Errorf("explore: horizon %v leaves no decision window before the settle slack %v", s.Horizon, s.SettleSlack)
	}
	return nil
}

// Run explores the spec and returns the report. It is deterministic: two
// runs of the same spec produce byte-identical reports (the double-run CI
// gate relies on it), whatever GOMAXPROCS is.
//
// Each level — the single crashes, each deeper level's crashes aimed inside
// the recoveries of the one before, the random frontier — is planned in full
// before any of its branches runs, its branches run on a GOMAXPROCS-sized
// pool, and their results are folded into the report serially in plan order.
// No plan of a level depends on another branch of the same level, and the
// fold is the only place branch results meet, so the report is the serial
// run's.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	return run(ctx, spec, runtime.GOMAXPROCS(0))
}

// run is Run with branches on the given number of workers.
func run(ctx context.Context, spec Spec, workers int) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	base, err := runBranch(ctx, spec, nil, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{Spec: spec, BaselineEvents: base.events, Fingerprint: base.fingerprint}
	rep.Stats.add(base)
	if len(base.famErrs) > 0 {
		// The crash-free probe run itself is inconsistent: exploring crash
		// schedules on top of a broken baseline is meaningless, so report
		// the empty schedule as the counterexample and stop.
		rep.Violations = 1
		rep.Counterexamples = append(rep.Counterexamples, Counterexample{
			Spec: spec, Violations: base.famErrs,
			Fingerprint: base.fingerprint, Events: base.events,
		})
		return rep, nil
	}

	points := selectPoints(base.points, spec.MaxPoints)
	rep.Points = len(points)
	budget := base.events*int64(spec.BudgetFactor) + 20_000
	r := &runner{spec: spec, base: base, budget: budget, rep: rep, fp: base.fingerprint, workers: workers}

	// Level 1: bounded-exhaustive single crashes — every decision point ×
	// every application process.
	var firsts []failure.Plan
	for _, step := range points {
		for v := 0; v < spec.N; v++ {
			firsts = append(firsts, failure.Plan{{Step: step, Proc: ids.ProcID(v)}})
		}
	}
	results, err := r.level(ctx, firsts)
	if err != nil {
		return nil, err
	}

	// Levels 2..MaxCrashes: aim one more crash inside the recoveries the
	// level before exposed, each after its plan's last crash.
	plans := firsts
	for depth := 2; depth <= spec.MaxCrashes; depth++ {
		plans = aim(plans, results, spec)
		if results, err = r.level(ctx, plans); err != nil {
			return nil, err
		}
	}

	// Seeded-random frontier: multi-crash schedules drawn from the same
	// candidate pool, deterministic per RandomSeed.
	if spec.Random > 0 && len(points) > 0 {
		rng := rand.New(rand.NewSource(spec.RandomSeed))
		var random []failure.Plan
		for i := 0; i < spec.Random; i++ {
			k := 1 + rng.Intn(spec.MaxCrashes)
			var plan failure.Plan
			for j := 0; j < k; j++ {
				step := points[rng.Intn(len(points))]
				plan = append(plan, failure.Crash{Step: step, Proc: ids.ProcID(rng.Intn(spec.N))})
			}
			random = append(random, plan.Sorted())
		}
		if _, err := r.level(ctx, random); err != nil {
			return nil, err
		}
	}

	rep.Fingerprint = r.fp
	return rep, nil
}

// aim plans the next level: each of plans extended by one crash at a
// recovery step its branch recorded after the plan's last crash, on every
// victim, up to DeepBranches. Round-robin across the branches so the budget
// spreads over distinct recoveries instead of exhausting one.
func aim(plans []failure.Plan, results []*branchResult, spec Spec) []failure.Plan {
	type recovering struct {
		plan     failure.Plan
		recSteps []int64
	}
	var recs []recovering
	for i, res := range results {
		steps, last := dedupeSteps(res.recSteps), plans[i][len(plans[i])-1].Step
		if steps = steps[sort.Search(len(steps), func(j int) bool { return steps[j] > last }):]; len(steps) > 0 {
			recs = append(recs, recovering{plan: plans[i], recSteps: steps})
		}
	}
	var deep []failure.Plan
	for idx := 0; len(deep) < spec.DeepBranches; idx++ {
		progressed := false
		for _, fb := range recs {
			if idx >= len(fb.recSteps) || len(deep) >= spec.DeepBranches {
				continue
			}
			progressed = true
			step := fb.recSteps[idx]
			for v := 0; v < spec.N && len(deep) < spec.DeepBranches; v++ {
				deep = append(deep, append(append(failure.Plan(nil), fb.plan...),
					failure.Crash{Step: step, Proc: ids.ProcID(v)}))
			}
		}
		if !progressed {
			break
		}
	}
	return deep
}

// runner threads the exploration state through branch launches.
type runner struct {
	spec    Spec
	base    *branchResult
	budget  int64
	rep     *Report
	fp      uint64
	workers int

	// idle holds at most one cluster per worker, each left by a branch that
	// ended normally, for the next branch to reset (DESIGN §13).
	mu   sync.Mutex
	idle []*experiments.Result
}

// branch runs one branch on an idle cluster, or on a fresh one if none is
// free, and hands the cluster back once the result is out of it — unless the
// branch panicked or was cancelled.
func (r *runner) branch(ctx context.Context, plan failure.Plan) (*branchResult, error) {
	var run *experiments.Result
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		run, r.idle = r.idle[n-1], r.idle[:n-1]
	} else {
		run = new(experiments.Result)
	}
	r.mu.Unlock()
	res, normal, err := runOn(ctx, run, r.spec, plan, false)
	if normal {
		r.mu.Lock()
		if len(r.idle) < r.workers {
			r.idle = append(r.idle, run)
		}
		r.mu.Unlock()
	}
	return res, err
}

// level runs one level's plans on the worker pool, results written back by
// plan index, then folds them into the report in plan order — the order a
// serial exploration visits them, so the report does not depend on which
// branch finished first. It returns the results in plan order.
func (r *runner) level(ctx context.Context, plans []failure.Plan) ([]*branchResult, error) {
	results := make([]*branchResult, len(plans))
	if err := pool.Run(ctx, len(plans), r.workers, func(i int) (err error) {
		results[i], err = r.branch(ctx, plans[i])
		return err
	}); err != nil {
		return nil, err
	}
	for i, res := range results {
		if err := r.fold(ctx, plans[i], res); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// fold counts one branch into the report, mixes its fingerprint into the
// report's, and — when the invariants are violated — minimizes the schedule
// (serially, on the calling goroutine) and records a replayable
// counterexample.
func (r *runner) fold(ctx context.Context, plan failure.Plan, res *branchResult) error {
	r.rep.Branches++
	r.rep.Stats.add(res)
	r.fp = mix(r.fp, res.fingerprint)
	if viol := checkBranch(r.base, res, plan, r.budget); len(viol) > 0 {
		r.rep.Violations++
		minPlan, minRes, minViol, err := r.minimize(ctx, plan, res, viol)
		if err != nil {
			return err
		}
		r.rep.Counterexamples = append(r.rep.Counterexamples, Counterexample{
			Spec:        r.spec,
			Plan:        minPlan,
			Violations:  minViol,
			Fingerprint: minRes.fingerprint,
			Events:      minRes.events,
		})
	}
	return nil
}

// minimize greedily removes crashes while the schedule still violates some
// invariant, yielding the smallest reproducing sub-schedule.
func (r *runner) minimize(ctx context.Context, plan failure.Plan, res *branchResult, viol []string) (failure.Plan, *branchResult, []string, error) {
	cur, curRes, curViol := plan, res, viol
	for changed := true; changed && len(cur) > 1; {
		changed = false
		for i := range cur {
			cand := append(append(failure.Plan(nil), cur[:i]...), cur[i+1:]...)
			candRes, err := r.branch(ctx, cand)
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
