package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rollrec/internal/experiments"
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

// run runs the experiments command with args and returns its combined
// output and error.
func run(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	return cmd.CombinedOutput()
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
		out, err := run(append([]string{"-timeline", dir}, args...)...)
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

// TestStrayArgumentsExit2: a word the command line does not use is refused
// with exit status 2 and named, before anything runs or is written — the
// flag package stops parsing at it, so every flag after it would be ignored.
// A retired subcommand is such a word.
func TestStrayArgumentsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, row := range []struct {
		args  []string
		stray string
	}{
		{[]string{"-list", "stray"}, "stray"},
		{[]string{"sweep", "-seeds", "1", "-n", "4", "-f", "1", "-profiles", "1995",
			"-styles", "nonblocking", "-out", filepath.Join(dir, "x.json"), "stray", "8"}, "stray"},
		{[]string{"compare", "../../BENCH_seed.json", "../../BENCH_seed.json"}, "compare"},
	} {
		out, err := run(row.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("experiments %s: %v, want exit status 2\n%s", strings.Join(row.args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), `"`+row.stray+`"`) {
			t.Errorf("experiments %s: the message does not name %q: %s", strings.Join(row.args, " "), row.stray, out)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) > 0 {
		t.Errorf("a refused sweep wrote %d files (%v)", len(entries), err)
	}
}

// TestSweepCommandMatchesSeed: the command line path — flags, axis parsing,
// the sweep, the snapshot file — reproduces the committed BENCH_seed.json
// from the Makefile's BENCH_AXES, axes and every cell. Meta is not compared:
// label and git revision name the run, not its results.
func TestSweepCommandMatchesSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ci.json")
	if out, err := run("sweep", "-label", "ci", "-out", path,
		"-seeds", "1,2", "-n", "4", "-f", "1", "-profiles", "1995", "-styles", "nonblocking,blocking"); err != nil {
		t.Fatalf("experiments sweep: %v\n%s", err, out)
	}
	got, err := experiments.ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := experiments.ReadSnapshot("../../BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Axes, seed.Axes) {
		t.Fatalf("axes %+v, BENCH_seed.json has %+v", got.Axes, seed.Axes)
	}
	if !reflect.DeepEqual(got.Cells, seed.Cells) {
		t.Fatal("cells deviate from BENCH_seed.json; if the change is intended, " +
			"regenerate it with `make bench-seed`")
	}
}
