// Package profile gives the CLIs their -cpuprofile / -memprofile flags, so
// that sizing a performance change needs no throwaway harness: the command
// that shows the cost is the command that explains it (ROADMAP item 1).
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations; empty means off.
type Flags struct {
	cpu, mem string
}

// Register declares -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile of the run to this file (go tool pprof -sample_index=alloc_space)")
	return f
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the allocation profile. Call stop once
// the measured work is done and before os.Exit — deferred calls do not
// survive it. With neither flag set both are no-ops.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if f.mem == "" {
			return nil
		}
		mem, err := os.Create(f.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // the profile is complete up to the last collection
		err = pprof.Lookup("allocs").WriteTo(mem, 0)
		if cerr := mem.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
