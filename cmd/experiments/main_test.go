package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain makes the test binary the experiments command itself when
// EXPERIMENTS_MAIN is set, so a test can run it and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnhonouredFlagsExit2: a timeline cell the run would not honour as
// labelled — a negative instant that silently ran the default, a crash the
// horizon never reaches, written out as crash@ with no markers — is refused
// with exit status 2 and the flag's name. The defaults (crash 10 s, horizon
// 25 s) count.
func TestUnhonouredFlagsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-timeline-crash", "-1s"},
		{"-timeline-crash", "20s", "-timeline-horizon", "12s"},
		{"-timeline-crash", "30s"},  // after the default 25 s horizon
		{"-timeline-horizon", "5s"}, // before the default 10 s crash
		{"-timeline-horizon", "-1s"},
		{"-timeline-interval", "0"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-timeline", dir}, args...)...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("experiments %s: %v, want exit status 2\n%s", strings.Join(args, " "), err, out)
			continue
		}
		if name := strings.TrimPrefix(args[0], "-"); !strings.Contains(string(out), name) {
			t.Errorf("experiments %s: the message does not name the flag: %s", strings.Join(args, " "), out)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) > 0 {
		t.Errorf("a refused run wrote %d exports (%v)", len(entries), err)
	}
}
