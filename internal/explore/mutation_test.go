package explore

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

// TestMutationDetected is the explorer's self-test: each row seeds a known
// bug and asserts the explorer finds a violating schedule — proving the
// invariant catalog does not pass vacuously — that the check the row names
// is among the first counterexample's violations, and that the
// counterexample replays to a byte-identical branch fingerprint — or, for the
// one mutant that leaks between branches, replays clean. Each row
// carries its spec. On the FBL rows (fblMutationSpec) no checkpoint ever
// covers the deliveries, so recovery must rebuild every receipt order from
// determinant copies and every message from its sender's log, maximizing
// each mutant's blast radius.
//
// The rows:
//   - "piggyback stripped": mutant.DropDetPiggyback strips the
//     causal-determinant piggyback from every send, so receipt orders never
//     reach f+1 holders;
//   - "payload written after Send": the scenario app flips the last byte of
//     every payload's data (its padding's length field) right after handing
//     it to Ctx.Send, which takes the data as its send-log record. The frame
//     already left, so only a retransmission from the log carries the flip,
//     and the receiver's re-delivery differs from the send the checker
//     recorded;
//   - "depinfo without its settled entries": mutant.DepInfoPendingOnly
//     makes every live process answer a gather with its pending
//     determinants only. The settled ones are the part of the reply read
//     from the log's second list. Without them the recovering process
//     replays from an incomplete schedule, diverges, and sends a message it
//     sent before to another receiver, whose log already holds that
//     message's receipt order and refuses the new one as conflicting;
//   - "rx envelope retained": mutant.RetainRx makes every frame a
//     process sets aside (deferred, or held for its turn in replay) the
//     runtime's receive envelope instead of a Keep copy. The runtime decodes
//     later frames into it, so a restarted process consumes whatever came
//     last in place of what it set aside, loses the frames it deferred, and
//     its peers wait for replies that never come;
//   - "kept payload shares the frame": mutant.KeepSharesPayload makes
//     Keep share the payload of a frame the runtime takes back once Deliver
//     returns, and sim.TestingPoisonFrames poisons every buffer taken back.
//     A frame held out of order or deferred is then consumed with a poisoned
//     payload, whose hash is not the one its sender logged;
//   - "stale determinant log kept": mutant.KeepStaleLog makes Boot of a
//     process object its slot kept leave the determinant log as the last
//     life left it. Within a branch that is benign: a restarted process's
//     own stale log only pins the execution it had. Across branches it is
//     not — a worker's next branch boots on the processes of its last, whose
//     determinants it piggybacks: its crash-free prefix is no longer the
//     probe run's, or a receipt order it recorded in its last run conflicts
//     with the one it records in this. Replay builds a fresh cluster, which
//     has no earlier branch, so for this row (leaks) the counterexample must
//     replay clean: the kill came from state carried between branches;
//   - "gather answered while restoring": mutant.AnswerWhileRestoring
//     lets a restarted process's manager take control frames before it
//     announces, so a depinfo request that reaches it while it reads its
//     checkpoint is answered on the live path with the log restored so far.
//     The leader then finishes its round without the restarted process's
//     determinants, and a recovery waits for messages nobody will send again.
//     The window opens only when a crash lands inside another's recovery
//     while a third is restoring: the row runs fblThreeCrashSpec;
//   - "restart-origin tag stripped": mutant.StripRestartOrigin makes
//     every rollback look relayed, so a restarter that missed an epoch never
//     gets the fresh rollback a live peer would relay, and the cluster runs
//     on from state the crash destroyed. Only a second crash inside a
//     recovery can make a restarter miss an epoch: the row runs
//     coordMutationSpec, and the single-crash n = 3 spec explores clean.
//
// Not parallel: mutant.On and the scenario table are package-global. Each
// row sets its mutant before Run and undoes it after the row, because Run's
// branch workers read them.
func TestMutationDetected(t *testing.T) {
	for _, row := range []struct {
		name   string
		spec   Spec
		mutant mutant.Mutant
		seed   func(t *testing.T) // what else the row installs (an app, the poisoner) and its undo
		killer *regexp.Regexp     // the check that kills it
		leaks  bool               // it leaks between branches: a fresh replay is clean
	}{
		{"piggyback stripped", fblMutationSpec(), mutant.DropDetPiggyback, nil,
			regexp.MustCompile(`^orphan: `), false},
		{"payload written after Send", fblMutationSpec(), mutant.None, func(t *testing.T) {
			orig := scenarios[FamilyFBL]
			t.Cleanup(func() { scenarios[FamilyFBL] = orig })
			sc := orig
			sc.app = func(n int) workload.Factory {
				app := orig.app(n)
				return func(self ids.ProcID, n int) workload.App { return writeAfterSendApp{app(self, n)} }
			}
			scenarios[FamilyFBL] = sc
		}, regexp.MustCompile(`^replay fidelity: |surviving send differs`), false},
		{"depinfo without its settled entries", fblMutationSpec(), mutant.DepInfoPendingOnly, nil,
			regexp.MustCompile(`^panic: .*conflicting determinants`), false},
		{"rx envelope retained", fblMutationSpec(), mutant.RetainRx, nil,
			regexp.MustCompile(`^liveness: .*workload incomplete`), false},
		{"kept payload shares the frame", fblMutationSpec(), mutant.KeepSharesPayload, func(t *testing.T) {
			sim.TestingPoisonFrames = true
			t.Cleanup(func() { sim.TestingPoisonFrames = false })
		}, regexp.MustCompile(`^orphan: .*surviving send differs`), false},
		{"stale determinant log kept", fblMutationSpec(), mutant.KeepStaleLog, nil,
			regexp.MustCompile(`^prefix-fidelity: |^panic: .*conflicting determinants`), true},
		{"gather answered while restoring", fblThreeCrashSpec, mutant.AnswerWhileRestoring, nil,
			regexp.MustCompile(`^liveness: |^orphan: `), false},
		{"restart-origin tag stripped", coordMutationSpec, mutant.StripRestartOrigin, nil,
			regexp.MustCompile(`^liveness: .*workload incomplete`), false},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.seed != nil {
				row.seed(t)
			}
			mutant.On = row.mutant
			t.Cleanup(func() { mutant.On = mutant.None })
			rep, err := Run(context.Background(), row.spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Counterexamples) == 0 {
				t.Fatalf("mutation not detected: %d branches, 0 violations — the invariant checker is vacuous",
					rep.Branches)
			}
			t.Logf("mutation detected: %d violations across %d branches", rep.Violations, rep.Branches)
			cx := rep.Counterexamples[0]
			t.Logf("first counterexample:\n%s", cx)
			if !slices.ContainsFunc(cx.Violations, row.killer.MatchString) {
				t.Fatalf("no violation matches %q, the check that kills this mutant", row.killer)
			}
			res, err := Replay(context.Background(), cx)
			if err != nil {
				t.Fatal(err)
			}
			if row.leaks {
				if res.Reproduced || len(res.Violations) > 0 {
					t.Fatalf("a fresh cluster reproduced the leak between branches: %+v", res)
				}
				return
			}
			if !res.Reproduced {
				t.Fatalf("counterexample did not reproduce on replay: %+v", res)
			}
			if !res.FingerprintMatch {
				t.Fatalf("replay fingerprint %#x differs from recorded %#x — branch not byte-identical",
					res.Fingerprint, cx.Fingerprint)
			}
		})
	}
}

// fblMutationSpec is the FBL rows' spec: n = 3, one crash, and no checkpoint
// ever (CheckpointEvery = time.Hour).
func fblMutationSpec() Spec {
	spec := testSpec(FamilyFBL, recovery.NonBlocking)
	spec.CheckpointEvery = time.Hour
	return spec
}

// fblThreeCrashSpec is the restore-window row's spec: n = 4, f = 3, each
// further crash aimed inside the recoveries of the one before, up to three.
var fblThreeCrashSpec = Spec{Family: FamilyFBL, N: 4, F: 3, MaxCrashes: 3}

// coordMutationSpec is the coordinated row's spec: n = 4 with second crashes
// aimed inside the recoveries of the first.
var coordMutationSpec = Spec{Family: FamilyCoordinated, N: 4, MaxCrashes: 2}

// writeAfterSendApp breaks the Ctx.Send contract the way an app that reuses
// its buffer would: every payload it sends has the last byte of its Data —
// the top byte of the padding's length field — flipped right after Send
// returns.
type writeAfterSendApp struct{ workload.App }

type writeAfterSendCtx struct{ workload.Ctx }

func (c writeAfterSendCtx) Send(to ids.ProcID, payload storage.Image) {
	c.Ctx.Send(to, payload)
	payload.Data[len(payload.Data)-1] ^= 0xFF
}

func (a writeAfterSendApp) Start(ctx workload.Ctx) { a.App.Start(writeAfterSendCtx{ctx}) }

func (a writeAfterSendApp) Handle(ctx workload.Ctx, from ids.ProcID, payload storage.Image) error {
	return a.App.Handle(writeAfterSendCtx{ctx}, from, payload)
}

// TestMutationAbsentIsClean double-checks the control: the identical specs
// without the mutations explore clean, so TestMutationDetected's violations
// are attributable to the seeded bugs alone.
func TestMutationAbsentIsClean(t *testing.T) {
	for _, spec := range []Spec{fblMutationSpec(), fblThreeCrashSpec, coordMutationSpec} {
		rep, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, cx := range rep.Counterexamples {
			t.Errorf("%s counterexample:\n%s", spec.Family, cx)
		}
		if rep.Violations != 0 {
			t.Fatalf("%d violations on the unmutated %s control", rep.Violations, spec.Family)
		}
	}
}

// panicApp is a scenario app that panics once its process has handled more
// than limit deliveries, counted across incarnations.
type panicApp struct {
	workload.App
	handled *int
	limit   int
}

func (a panicApp) Handle(ctx workload.Ctx, from ids.ProcID, payload storage.Image) error {
	if *a.handled++; *a.handled > a.limit {
		panic(fmt.Sprintf("explore test: %v handled delivery %d", ctx.Self(), *a.handled))
	}
	return a.App.Handle(ctx, from, payload)
}

// TestProtocolPanicIsAViolation swaps the coordinated scenario's ring for
// one that panics on a process's ninth delivery: the crash-free ring gives
// each of the three processes eight, so only a rollback's re-execution gets
// there. The explorer must survive every such branch, report the panic as a
// violation, and hand back a counterexample that replays byte-identically.
//
// Not parallel: the scenario table is package-global. It is swapped before
// Run and restored after the test, because Run's branch workers read it.
func TestProtocolPanicIsAViolation(t *testing.T) {
	orig := scenarios[FamilyCoordinated]
	t.Cleanup(func() { scenarios[FamilyCoordinated] = orig })
	sc := orig
	sc.app = func(n int) workload.Factory {
		ring, handled := orig.app(n), make([]int, n)
		return func(self ids.ProcID, n int) workload.App {
			return panicApp{App: ring(self, n), handled: &handled[self], limit: 8}
		}
	}
	scenarios[FamilyCoordinated] = sc

	rep, err := Run(context.Background(), testSpec(FamilyCoordinated, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) == 0 {
		t.Fatalf("no violation in %d branches: the panic was not reported", rep.Branches)
	}
	cx := rep.Counterexamples[0]
	if len(cx.Plan) == 0 || len(cx.Violations) != 1 || !strings.HasPrefix(cx.Violations[0], "panic: ") ||
		!strings.Contains(cx.Violations[0], "handled delivery 9") {
		t.Fatalf("want one panic violation under a crash plan, got %s", cx)
	}
	t.Logf("%d of %d branches violate; first:\n%s", rep.Violations, rep.Branches, cx)
	res, err := Replay(context.Background(), cx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || !res.FingerprintMatch || res.Events != cx.Events {
		t.Fatalf("replay %+v does not reproduce %s", res, cx)
	}
}
