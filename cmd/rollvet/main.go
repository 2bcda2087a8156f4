// Command rollvet runs the repo's determinism and protocol-invariant
// checks (see internal/analysis) over the given package patterns.
//
// Usage:
//
//	go run ./cmd/rollvet ./...          # whole module
//	go run ./cmd/rollvet ./internal/... # protocol packages only
//	go run ./cmd/rollvet -json ./...    # machine-readable findings
//	go run ./cmd/rollvet -list          # describe the checks
//
// Exit status is a contract CI scripts rely on:
//
//	0  clean — no unsuppressed findings
//	1  at least one unsuppressed finding was reported
//	2  load or type-check failure (bad patterns, code that does not build)
//
// Suppressed findings never affect the exit status; they appear only in
// -json output, flagged "suppressed": true.
//
// Findings print as file:line:col diagnostics, or with -json as one JSON
// document {version, total, suppressed, findings:[{file, line, col, check,
// message, suppressed}]} with module-root-relative slash paths, sorted by
// position — byte-identical across runs and machines for the same tree. A
// finding is silenced — with a mandatory justification — by
//
//	//rollvet:allow <check> -- <reason>
//
// on the offending line or the line directly above it.
//
// Run rollvet over the whole module (./...): poolescape tracks the
// //rollvet:pooled types of every loaded package, so a partial load that
// omits the declaring package misses their pointers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rollrec/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the checks and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (suppressed ones included)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rollvet [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rollvet: %v\n", err)
		os.Exit(2)
	}
	findings := analysis.CheckPackagesAll(pkgs, analysis.All)

	failing := 0
	for _, f := range findings {
		if !f.Suppressed {
			failing++
		}
	}

	if *jsonOut {
		root, err := analysis.ModuleRoot(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rollvet: %v\n", err)
			os.Exit(2)
		}
		if err := analysis.WriteJSON(os.Stdout, root, findings); err != nil {
			fmt.Fprintf(os.Stderr, "rollvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		cwd, _ := os.Getwd()
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			name := f.Pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
					name = rel
				}
			}
			fmt.Printf("%s:%d:%d: %s: %s\n", name, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
		}
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "rollvet: %d finding(s) in %d package(s)\n", failing, len(pkgs))
		os.Exit(1)
	}
}
