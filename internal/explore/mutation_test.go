package explore

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"rollrec/internal/coord"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// TestMutationDetected is the explorer's self-test: each row seeds a known
// bug and asserts the explorer finds a violating schedule — proving the
// invariant catalog does not pass vacuously — that the check the row names
// is among the first counterexample's violations, and that the
// counterexample replays to a byte-identical branch fingerprint. Each row
// carries its spec. On the FBL rows (fblMutationSpec) no checkpoint ever
// covers the deliveries, so recovery must rebuild every receipt order from
// determinant copies and every message from its sender's log, maximizing
// each mutant's blast radius.
//
// The rows:
//   - "piggyback stripped": fbl.TestingDropDetPiggyback strips the
//     causal-determinant piggyback from every send, so receipt orders never
//     reach f+1 holders;
//   - "payload written after Send": the scenario app flips a padding byte of
//     every buffer right after handing it to Ctx.Send, which takes the
//     buffer as its send-log record. The frame already left, so only a
//     retransmission from the log carries the flip, and the receiver's
//     re-delivery differs from the send the checker recorded;
//   - "depinfo without its settled entries": fbl.TestingDepInfoPendingOnly
//     makes every live process answer a gather with its pending
//     determinants only. The settled ones are the part of the reply read
//     from the log's second list. Without them the recovering process
//     replays from an incomplete schedule, diverges, and sends a message it
//     sent before to another receiver, whose log already holds that
//     message's receipt order and refuses the new one as conflicting;
//   - "restart-origin tag stripped": coord.TestingStripRestartOrigin makes
//     every rollback look relayed, so a restarter that missed an epoch never
//     gets the fresh rollback a live peer would relay, and the cluster runs
//     on from state the crash destroyed. Only a second crash inside a
//     recovery can make a restarter miss an epoch: the row runs
//     coordMutationSpec, and the single-crash n = 3 spec explores clean.
//
// Not parallel: the mutation knob and the scenario table are package-global.
// Each row sets its mutant before Run and undoes it after the row, because
// Run's branch workers read them.
func TestMutationDetected(t *testing.T) {
	for _, row := range []struct {
		name   string
		spec   Spec
		seed   func(t *testing.T) // installs the mutant and registers its undo
		killer *regexp.Regexp     // the check that kills it
	}{
		{"piggyback stripped", fblMutationSpec(), func(t *testing.T) {
			fbl.TestingDropDetPiggyback = true
			t.Cleanup(func() { fbl.TestingDropDetPiggyback = false })
		}, regexp.MustCompile(`^orphan: `)},
		{"payload written after Send", fblMutationSpec(), func(t *testing.T) {
			orig := scenarios[FamilyFBL]
			t.Cleanup(func() { scenarios[FamilyFBL] = orig })
			sc := orig
			sc.app = func(n int) workload.Factory {
				app := orig.app(n)
				return func(self ids.ProcID, n int) workload.App { return writeAfterSendApp{app(self, n)} }
			}
			scenarios[FamilyFBL] = sc
		}, regexp.MustCompile(`^replay fidelity: |surviving send differs`)},
		{"depinfo without its settled entries", fblMutationSpec(), func(t *testing.T) {
			fbl.TestingDepInfoPendingOnly = true
			t.Cleanup(func() { fbl.TestingDepInfoPendingOnly = false })
		}, regexp.MustCompile(`^panic: .*conflicting determinants`)},
		{"restart-origin tag stripped", coordMutationSpec, func(t *testing.T) {
			coord.TestingStripRestartOrigin = true
			t.Cleanup(func() { coord.TestingStripRestartOrigin = false })
		}, regexp.MustCompile(`^liveness: .*workload incomplete`)},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.seed(t)
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

// coordMutationSpec is the coordinated row's spec: n = 4 with second crashes
// aimed inside the recoveries of the first.
var coordMutationSpec = Spec{Family: FamilyCoordinated, N: 4, MaxCrashes: 2}

// writeAfterSendApp breaks the Ctx.Send contract the way an app that reuses
// its buffer would: every payload it sends has its last byte — padding the
// receiver never parses — flipped right after Send returns.
type writeAfterSendApp struct{ workload.App }

type writeAfterSendCtx struct{ workload.Ctx }

func (c writeAfterSendCtx) Send(to ids.ProcID, payload []byte) {
	c.Ctx.Send(to, payload)
	payload[len(payload)-1] ^= 0xFF
}

func (a writeAfterSendApp) Start(ctx workload.Ctx) { a.App.Start(writeAfterSendCtx{ctx}) }

func (a writeAfterSendApp) Handle(ctx workload.Ctx, from ids.ProcID, payload []byte) error {
	return a.App.Handle(writeAfterSendCtx{ctx}, from, payload)
}

// TestMutationAbsentIsClean double-checks the control: the identical specs
// without the mutations explore clean, so TestMutationDetected's violations
// are attributable to the seeded bugs alone.
func TestMutationAbsentIsClean(t *testing.T) {
	for _, spec := range []Spec{fblMutationSpec(), coordMutationSpec} {
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

func (a panicApp) Handle(ctx workload.Ctx, from ids.ProcID, payload []byte) error {
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
