package fbl

import (
	"fmt"
	"os"
	"testing"

	"rollrec/internal/mutant"
)

// TestMain fails the package when a test leaves a mutant switched on, which
// would seed its bug into every test that runs after it.
func TestMain(m *testing.M) {
	code := m.Run()
	if mutant.On != mutant.None {
		fmt.Fprintf(os.Stderr, "a test left mutant.On = %d: clear it after the run it seeds\n", mutant.On)
		code = 1
	}
	os.Exit(code)
}
