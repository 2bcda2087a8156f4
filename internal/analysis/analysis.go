// Package analysis implements rollvet, the repo's determinism and
// protocol-invariant static analyzer.
//
// The whole reproduction rests on piecewise determinism: the simulator's
// virtual clock, seeded RNG streams, and replay that regenerates identical
// sends (DESIGN S1/S12; the paper's §4 correctness argument assumes a
// deterministic replay). Those invariants used to be enforced only by code
// review. This package makes them mechanical: a small analyzer framework
// built exclusively on the standard library (go/parser, go/ast, go/types
// with the source importer) walks every package and reports violations.
//
// Checks:
//
//   - simtime:   no wall-clock time.Now/Sleep/After/... (sim-driven code
//     must use the virtual clock).
//   - detrand:   no global math/rand top-level functions — only seeded
//     *rand.Rand streams threaded from the simulator configuration.
//   - maporder:  no map iteration in deterministic packages whose body can
//     leak the nondeterministic order into protocol-visible state.
//   - goroutine: no go statements in sim-driven packages.
//   - poolescape: a pointer into a //rollvet:pooled arena (the sim kernel's
//     event slots) must not outlive the handler that obtained it — no
//     stores to fields/globals/maps/slices, no closure capture, no use
//     across a call that may recycle the pool.
//   - stablewrite: error results from internal/storage and internal/wire
//     must be checked (an ignored stable-write error silently breaks the
//     f+1 stability guarantee), and a wire.Reader must have Err/Done
//     consulted before its values are trusted.
//
// Findings are suppressed per line with
//
//	//rollvet:allow <check> -- <reason>
//
// placed at the end of the offending line or on the line directly above
// it. The reason is mandatory: a suppression without one is itself a
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Finding is a diagnostic plus its suppression state. CheckPackagesAll
// returns findings (machine-readable output wants the suppressed ones too);
// CheckPackages keeps the original filtered view.
type Finding struct {
	Diagnostic
	Suppressed bool
}

// Pass hands one analyzer everything it needs to examine one package.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	Files    []*ast.File
	TypesPkg *types.Package
	Info     *types.Info
	Prog     *Program // whole-run //rollvet:pooled index

	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the full rollvet suite in reporting order.
var All = []*Analyzer{SimTime, DetRand, MapOrder, Goroutine, PoolEscape, StableWrite}

// detPackages are the packages whose event handlers must be deterministic:
// they run identically during live execution and replay, so any order or
// scheduling nondeterminism in them breaks the recovery correctness
// argument. Identified by package name; the repo has exactly one of each.
var detPackages = map[string]bool{
	"channel":    true,
	"fbl":        true,
	"det":        true,
	"recovery":   true,
	"coord":      true,
	"optimistic": true,
	"wire":       true,
	"sim":        true,
}

// CheckPackages runs every analyzer over every package, applies suppression
// comments, and returns the surviving findings sorted by position.
// Malformed or stale suppressions are returned as findings of check
// "suppress".
func CheckPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, f := range CheckPackagesAll(pkgs, analyzers) {
		if !f.Suppressed {
			out = append(out, f.Diagnostic)
		}
	}
	return out
}

// CheckPackagesAll is CheckPackages without the suppression filter: every
// finding is returned, suppressed ones flagged rather than dropped, so
// machine-readable consumers (cmd/rollvet -json) can expose the full
// picture. The whole package set is indexed once into a shared Program
// (the //rollvet:pooled types) before any analyzer runs, so poolescape sees
// annotations made in other packages.
func CheckPackagesAll(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	prog := buildProgram(pkgs)
	var out []Finding
	for _, pkg := range pkgs {
		allows, supDiags := collectSuppressions(pkg, known)
		for _, d := range supDiags {
			out = append(out, Finding{Diagnostic: d})
		}
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Files:    pkg.Files,
				TypesPkg: pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				check:    a.Name,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			a.Run(pass)
		}
		for _, d := range raw {
			out = append(out, Finding{Diagnostic: d, Suppressed: allows.covers(d)})
		}
		for _, d := range allows.stale() {
			out = append(out, Finding{Diagnostic: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
