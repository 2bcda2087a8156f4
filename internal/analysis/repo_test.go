package analysis

import "testing"

// TestRepoInvariants runs the full rollvet suite over the repo itself — the
// root package and everything under internal/ — so plain `go test ./...`
// (the tier-1 gate) fails the moment a change reintroduces wall-clock
// reads, global randomness, order-leaking map iteration, stray goroutines,
// escaping arena pointers or unchecked stable writes. cmd/ and examples/
// are covered by the `make lint` / CI invocation of
// `go run ./cmd/rollvet ./...`.
func TestRepoInvariants(t *testing.T) {
	pkgs, err := Load("../..", []string{".", "./internal/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := CheckPackages(pkgs, All)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the code or, if the order is provably unobservable, annotate the line with //rollvet:allow <check> -- <reason>")
	}
}
