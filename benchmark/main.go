// Command rollbench is the repository's host-time benchmark: it runs one
// named workload through the simulator's public entry points for a fixed
// number of seconds and prints either the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). See README.md in this directory.
//
// This file is only the launcher. The benchmark reads the host clock, which
// rollvet allows in _test.go files only, so the benchmark proper is this
// package's test binary (see TestMain): the launcher builds it into
// ../.bench_build and runs it once, as one child process, with its own
// arguments, output and exit code.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	// `go run -C benchmark .` leaves the working directory in this package.
	bin, err := filepath.Abs(filepath.Join("..", ".bench_build", "rollbench.test"))
	if err != nil {
		fail(err)
	}
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fail(fmt.Errorf("building the benchmark (run from the benchmark directory, or `go run -C benchmark .`): %w", err))
	}
	run := exec.Command(bin, os.Args[1:]...)
	run.Stdin, run.Stdout, run.Stderr = os.Stdin, os.Stdout, os.Stderr
	err = run.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		os.Exit(exit.ExitCode())
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rollbench:", err)
	os.Exit(2)
}
