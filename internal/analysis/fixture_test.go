package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden fixtures under testdata/src mirror x/tools' analysistest
// convention: a trailing comment
//
//	// want "regexp"
//
// on a line declares that the suite must report a finding there whose
// message matches the regexp; multiple quoted patterns declare multiple
// findings. Lines without a want comment must stay silent. The fixtures run
// through the full CheckPackages pipeline, so the suppression path
// (//rollvet:allow ... -- reason) is exercised exactly as in production.

// loadFixture parses and type-checks one fixture directory as a standalone
// package (fixtures import only the standard library).
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s holds no Go files", dir)
	}
	pkg.RelDir = filepath.ToSlash(dir)
	pkg.ImportPath = "fixture/" + filepath.ToSlash(dir)
	imp := &moduleImporter{
		fset:   fset,
		mod:    map[string]*Package{pkg.ImportPath: pkg},
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		status: make(map[string]int),
	}
	if err := imp.ensure(pkg); err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	return pkg
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// collectWants indexes every want pattern by file:line.
func collectWants(t *testing.T, pkg *Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}

// runFixture checks one fixture directory against its want comments.
func runFixture(t *testing.T, rel string) {
	t.Helper()
	pkg := loadFixture(t, filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	wants := collectWants(t, pkg)
	for _, d := range CheckPackages([]*Package{pkg}, All) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected finding matching %q, got none", key, w.re)
			}
		}
	}
}

func TestSimTimeFixtures(t *testing.T) {
	runFixture(t, "simtime/clocked")
}

func TestDetRandFixtures(t *testing.T) {
	runFixture(t, "detrand/proto")
}

func TestMapOrderFixtures(t *testing.T) {
	runFixture(t, "maporder/fbl")
	runFixture(t, "maporder/plainpkg")
}

func TestGoroutineFixtures(t *testing.T) {
	runFixture(t, "goroutine/sim")
	runFixture(t, "goroutine/plainpkg")
}

func TestPoolEscapeFixtures(t *testing.T) {
	runFixture(t, "poolescape/arena")
}

func TestStableWriteFixtures(t *testing.T) {
	runFixture(t, "stablewrite/wire")
}

// TestInertSuppressions checks the stale-allow and unknown-directive
// findings: a suppression that silences nothing and a typoed rollvet
// directive must both surface instead of rotting silently.
func TestInertSuppressions(t *testing.T) {
	runFixture(t, "suppress/inert")
}

// TestMalformedSuppressions checks the driver refuses sloppy allow
// directives: each malformed form becomes a "suppress" finding and the
// underlying violation is still reported.
func TestMalformedSuppressions(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "suppress", "bad"))
	diags := CheckPackages([]*Package{pkg}, All)
	wantSubstrings := []string{
		"missing its mandatory reason",
		"names unknown check",
		"names no check",
		"must name exactly one check",
		"time.Now reads the wall clock", // the one under the reasonless allow
		"time.Now reads the wall clock", // the one under the unknown-check allow
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	for _, sub := range wantSubstrings {
		found := -1
		for i, m := range msgs {
			if strings.Contains(m, sub) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("no finding containing %q in %v", sub, msgs)
			continue
		}
		msgs = append(msgs[:found], msgs[found+1:]...)
	}
	if len(msgs) != 0 {
		t.Errorf("unexpected extra findings: %v", msgs)
	}
}
