package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowMarker introduces a suppression comment:
//
//	//rollvet:allow <check> -- <reason>
//
// A suppression on line L silences findings of <check> on line L (trailing
// form) and on line L+1 (standalone form, placed directly above the code).
// The reason after " -- " is mandatory, the check name must exist, and the
// suppression must actually silence something: a stale or sloppy
// suppression shows up as a finding instead of silently rotting.
const allowMarker = "rollvet:allow"

// directivePrefix is the common stem of every rollvet source directive.
// Any comment starting with it must parse as one of the known directives
// (allow, pooled); a typo like //rollvet:allowsimtime or //rollvet:poold
// would otherwise be silently inert — or worse, silently honored as a
// different directive than the author intended.
const directivePrefix = "//rollvet:"

// allowEntry is one well-formed suppression, tracked so that suppressions
// which never fire can be reported as stale.
type allowEntry struct {
	pos   token.Position
	check string
	used  bool
}

// allowSet indexes suppressions by file, line, and check name, keeping the
// original scan order for deterministic stale-suppression reporting.
type allowSet struct {
	entries []*allowEntry
	byLine  map[string]map[int]map[string]*allowEntry
}

func newAllowSet() *allowSet {
	return &allowSet{byLine: make(map[string]map[int]map[string]*allowEntry)}
}

func (s *allowSet) add(pos token.Position, check string) {
	e := &allowEntry{pos: pos, check: check}
	s.entries = append(s.entries, e)
	byLine := s.byLine[pos.Filename]
	if byLine == nil {
		byLine = make(map[int]map[string]*allowEntry)
		s.byLine[pos.Filename] = byLine
	}
	checks := byLine[pos.Line]
	if checks == nil {
		checks = make(map[string]*allowEntry)
		byLine[pos.Line] = checks
	}
	checks[check] = e
}

// covers reports whether d is silenced by a suppression on its own line or
// on the line directly above it, marking every matching entry as used.
func (s *allowSet) covers(d Diagnostic) bool {
	byLine := s.byLine[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	hit := false
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if e := byLine[line][d.Check]; e != nil {
			e.used = true
			hit = true
		}
	}
	return hit
}

// stale returns one "suppress" diagnostic per entry that silenced nothing,
// in scan order.
func (s *allowSet) stale() []Diagnostic {
	var diags []Diagnostic
	for _, e := range s.entries {
		if e.used {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   e.pos,
			Check: "suppress",
			Message: fmt.Sprintf(
				"suppression of %q silences nothing on this line or the next; delete the stale //%s",
				e.check, allowMarker),
		})
	}
	return diags
}

// collectSuppressions scans a package's comments for rollvet directives.
// Well-formed allows are returned as an allowSet; malformed ones (missing
// reason, unknown check, unknown directive word) come back as "suppress"
// diagnostics so they cannot silently disable anything.
func collectSuppressions(pkg *Package, known map[string]bool) (*allowSet, []Diagnostic) {
	allows := newAllowSet()
	var diags []Diagnostic
	bad := func(c *ast.Comment, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     pkg.Fset.Position(c.Pos()),
			Check:   "suppress",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				word := rest
				if i := strings.IndexAny(word, " \t"); i >= 0 {
					word = word[:i]
				}
				switch word {
				case "allow":
					text := strings.TrimPrefix(rest, "allow")
					directive, reason, hasReason := strings.Cut(text, "--")
					check := strings.TrimSpace(directive)
					switch {
					case check == "":
						bad(c, "suppression names no check: //%s <check> -- <reason>", allowMarker)
					case strings.ContainsAny(check, " \t"):
						bad(c, "suppression must name exactly one check, got %q", check)
					case !known[check]:
						bad(c, "suppression names unknown check %q", check)
					case !hasReason || strings.TrimSpace(reason) == "":
						bad(c, "suppression of %q is missing its mandatory reason: //%s %s -- <reason>", check, allowMarker, check)
					default:
						allows.add(pkg.Fset.Position(c.Pos()), check)
					}
				case "pooled":
					// The annotation buildProgram consumes.
				default:
					bad(c, "unknown rollvet directive %q; known directives are allow, pooled",
						directivePrefix+word)
				}
			}
		}
	}
	return allows, diags
}
