package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONDeterminism renders the same fixture twice through fresh loads
// and demands byte-identical output: the -json contract CI artifacts and
// diff tooling rely on. The stablewrite fixture is used because it carries
// both failing and suppressed findings.
func TestJSONDeterminism(t *testing.T) {
	render := func() string {
		pkg := loadFixture(t, filepath.Join("testdata", "src", "stablewrite", "wire"))
		var buf bytes.Buffer
		if err := WriteJSON(&buf, "", CheckPackagesAll([]*Package{pkg}, All)); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("JSON output is not byte-deterministic:\n--- first\n%s\n--- second\n%s", first, second)
	}

	var rep struct {
		Version    int `json:"version"`
		Total      int `json:"total"`
		Suppressed int `json:"suppressed"`
		Findings   []struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Check      string `json:"check"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(first), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Version != 1 {
		t.Errorf("version = %d, want 1", rep.Version)
	}
	if rep.Total == 0 {
		t.Error("fixture should yield failing findings, got total = 0")
	}
	if rep.Suppressed == 0 {
		t.Error("fixture should yield a suppressed finding, got suppressed = 0")
	}
	if got := rep.Total + rep.Suppressed; got != len(rep.Findings) {
		t.Errorf("total %d + suppressed %d != %d findings", rep.Total, rep.Suppressed, len(rep.Findings))
	}
	sawSuppressed := false
	for _, f := range rep.Findings {
		if strings.Contains(f.File, "\\") {
			t.Errorf("file %q must use forward slashes", f.File)
		}
		if f.Suppressed {
			sawSuppressed = true
			if f.Check != "stablewrite" {
				t.Errorf("suppressed finding has check %q, want stablewrite", f.Check)
			}
		}
	}
	if !sawSuppressed {
		t.Error("no finding flagged suppressed: true")
	}
}

// TestJSONRelativizesPaths checks WriteJSON trims the module root prefix.
func TestJSONRelativizesPaths(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "stablewrite", "wire"))
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, root, CheckPackagesAll([]*Package{pkg}, All)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, filepath.ToSlash(root)) {
		t.Errorf("output still contains the absolute module root %q:\n%s", root, out)
	}
	if !strings.Contains(out, "testdata/src/stablewrite/wire/wire.go") {
		t.Errorf("expected root-relative fixture path in output:\n%s", out)
	}
}
