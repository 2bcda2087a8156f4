package explore

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"rollrec/internal/experiments"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
)

// resetPlans are plans over spec's first decision points: single crashes,
// and every other one with a second crash 40 steps later.
func resetPlans(t *testing.T, spec Spec, n int) []failure.Plan {
	t.Helper()
	base, err := runBranch(context.Background(), spec, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	var plans []failure.Plan
	for i, step := range selectPoints(base.points, n) {
		plan := failure.Plan{{Step: step, Proc: ids.ProcID(i % spec.N)}}
		if i%2 == 1 {
			plan = append(plan, failure.Crash{Step: step + 40, Proc: ids.ProcID((i + 1) % spec.N)})
		}
		plans = append(plans, plan)
	}
	return plans
}

// TestResetBranchEqualsFresh: a branch run on the cluster the branch before
// it left reads exactly as one on a fresh build — fingerprint, event and
// window counts, frames, digests, violations, recovery steps — for every
// family, whatever that predecessor crashed.
func TestResetBranchEqualsFresh(t *testing.T) {
	ctx := context.Background()
	for _, fam := range Families() {
		spec := Spec{Family: fam, N: 4}.withDefaults()
		run := new(experiments.Result)
		for _, plan := range resetPlans(t, spec, 6) {
			want, err := runBranch(ctx, spec, plan, false)
			if err != nil {
				t.Fatal(err)
			}
			got, normal, err := runOn(ctx, run, spec, plan, false)
			if err != nil || !normal {
				t.Fatalf("%s %v: reused branch ended with %v (normal %v)", fam, plan, err, normal)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: branch on a reset cluster\n got %+v\nfresh %+v", fam, plan, got, want)
			}
		}
	}
}

// TestReusedBranchAllocs: an FBL branch at n=4 on the cluster an earlier
// branch left allocates at least 45 % fewer bytes than the same plan on a
// fresh build: the arenas a reset keeps, the process objects and their
// buffers among them (DESIGN §13), are what an explorer sweep saves. Measured with runtime.MemStats, which counts every
// goroutine's allocations, so the test is not parallel (see
// TestBranchAllocBudget).
func TestReusedBranchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations make the count meaningless")
	}
	ctx := context.Background()
	spec := Spec{Family: FamilyFBL, Style: recovery.NonBlocking, N: 4}.withDefaults()
	plans := resetPlans(t, spec, 12)
	perBranch := func(branch func(failure.Plan)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, plan := range plans {
			branch(plan)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(plans))
	}
	fresh := perBranch(func(plan failure.Plan) {
		if _, err := runBranch(ctx, spec, plan, false); err != nil {
			t.Fatal(err)
		}
	})
	run := new(experiments.Result)
	reuse := func(plan failure.Plan) {
		if _, normal, err := runOn(ctx, run, spec, plan, false); err != nil || !normal {
			t.Fatalf("%v: %v (normal %v)", plan, err, normal)
		}
	}
	reuse(plans[0])
	reused := perBranch(reuse)
	t.Logf("a branch allocates %.1f KB fresh, %.1f KB on a reset cluster (%.1f %% less)",
		float64(fresh)/1024, float64(reused)/1024, 100*(1-float64(reused)/float64(fresh)))
	if reused*100 > fresh*55 {
		t.Fatalf("a branch on a reset cluster allocates %d B, a fresh one %d B: want at least 45 %% less", reused, fresh)
	}
}
