package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain makes the test binary fblsim itself when FBLSIM_MAIN is set, so a
// test can run the command and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("FBLSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnhonouredFlagsExit2: a value the run would not honour as printed —
// the scenario line would say f=0 while the cluster ran f = 1, or count
// padding it never wrote — is refused with exit status 2 and the flag's
// name, like every other bad flag.
func TestUnhonouredFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-f", "0"},
		{"-f", "-1"},
		{"-statepad", "-5"},
		{"-checkpoint", "-1s"},
		{"-horizon", "-1s"},
		{"-trace-buf", "-1"},
		{"-timeline-interval", "0"},
		{"-crash", "40s:1"},                       // after the default 30 s horizon
		{"-crash", "2s:1,5s:0", "-horizon", "4s"}, // the second is never reached
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "FBLSIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("fblsim %s: %v, want exit status 2\n%s", strings.Join(args, " "), err, out)
			continue
		}
		if name := strings.TrimPrefix(args[0], "-"); !strings.Contains(string(out), name) {
			t.Errorf("fblsim %s: the message does not name the flag: %s", strings.Join(args, " "), out)
		}
	}
}

// TestCrashAtTheHorizonIsInjected: the last instant a run reaches is the
// horizon itself, so a crash there is legal — and injected, which the
// liveness check then reports (exit 1), not refused like one after it.
func TestCrashAtTheHorizonIsInjected(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-n", "2", "-crash", "1s:1", "-horizon", "1s")
	cmd.Env = append(os.Environ(), "FBLSIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "liveness:") {
		t.Fatalf("fblsim -crash 1s:1 -horizon 1s: %v, want exit status 1 and a liveness violation\n%s", err, out)
	}
}

func TestParseApp(t *testing.T) {
	for _, name := range []string{"gossip", "ring", "clientserver"} {
		f, err := parseApp(name)
		if err != nil || f == nil {
			t.Errorf("parseApp(%q): %v", name, err)
		}
	}
	if _, err := parseApp("mapreduce"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestParseCrashes(t *testing.T) {
	plan, err := parseCrashes("10s:3, 14.5s:5", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || plan[0].Proc != 3 || plan[0].At != 10*time.Second ||
		plan[1].Proc != 5 || plan[1].At != 14500*time.Millisecond {
		t.Fatalf("plan = %+v", plan)
	}
	if p, err := parseCrashes("", 8); err != nil || p != nil {
		t.Fatal("empty schedule must parse to nil")
	}
	for _, bad := range []string{"10s", "xx:1", "10s:9", "10s:-1", "10s:abc", "-1s:1"} {
		if _, err := parseCrashes(bad, 8); err == nil {
			t.Errorf("parseCrashes(%q) must error", bad)
		}
	}
}

// FuzzParseCrashes: whatever the flag says, parsing never panics, and every
// entry it accepts can be run: at or after time zero, on a process of the
// cluster.
func FuzzParseCrashes(f *testing.F) {
	for _, s := range []string{"10s:3, 14.5s:5", "", "-1s:1", "10s:-1", "1h:0,0s:7", "xx:1", ":", ",,"} {
		f.Add(s, 8)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		plan, err := parseCrashes(s, n)
		if err != nil {
			return
		}
		for _, cr := range plan {
			if cr.At < 0 || cr.Proc < 0 || int(cr.Proc) >= n {
				t.Fatalf("parseCrashes(%q, %d) accepted %+v", s, n, cr)
			}
		}
	})
}
