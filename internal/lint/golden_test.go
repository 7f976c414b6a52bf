package lint

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-file tests load the fixture packages under testdata/src and
// compare each rule's diagnostics against `// want "substring"` comments:
// every want comment must be matched by a diagnostic on its line whose
// message contains the quoted substring, and every diagnostic must be
// claimed by a want comment. Suppressed and clean fixtures carry no want
// comments, so any finding there fails the test.

var (
	wantRE   = regexp.MustCompile(`// want (.*)$`)
	quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					quoted := quotedRE.FindAllString(m[1], -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: want comment without a quoted substring", pos.Filename, pos.Line)
					}
					for _, q := range quoted {
						substr, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, substr: substr})
					}
				}
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, l *Loader, rule string, dirs ...string) {
	t.Helper()
	pkgs, err := l.LoadDirs(dirs...)
	if err != nil {
		t.Fatalf("load %v: %v", dirs, err)
	}
	analyzers, err := ByName(Suite(), []string{rule})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l.Fset, analyzers, pkgs)
	wants := collectWants(t, l.Fset, pkgs)

	for _, d := range diags {
		claimed := false
		// Several want substrings on one line may all match the same
		// diagnostic (a lockorder cycle asserts both the cycle and its
		// call chain), so matching does not consume the want.
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestGoldenFiles(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ rule, dir string }{
		{"ctxfirst", "internal/lint/testdata/src/ctxfirst/storage"},
		{"lockblock", "internal/lint/testdata/src/lockblock/lockblock"},
		{"goleak", "internal/lint/testdata/src/goleak/goleak"},
		{"goleak", "internal/lint/testdata/src/goleak/gateway"},
		{"determinism", "internal/lint/testdata/src/determinism/sim"},
		{"determinism", "internal/lint/testdata/src/determinism/cache"},
		{"determinism", "internal/lint/testdata/src/determinism/tasks"},
		{"determinism", "internal/lint/testdata/src/determinism/gateway"},
		{"determinism", "internal/lint/testdata/src/determinism/metadata"},
		{"errwrap", "internal/lint/testdata/src/errwrap/errwrap"},
		{"metricname", "internal/lint/testdata/src/metricname/metricname"},
		{"lockorder", "internal/lint/testdata/src/lockorder/lockorder"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			runGolden(t, l, tc.rule, tc.dir)
		})
	}
	// The frame-buffer fixtures take buffers from the real bufpool, which
	// is analysed with them: its Get/Put pair must be inferred through the
	// call graph, not hardcoded.
	t.Run("poolbalance", func(t *testing.T) {
		runGolden(t, l, "poolbalance", "internal/lint/testdata/src/poolbalance/poolbalance", "internal/bufpool")
	})
}

// TestMalformedDirective checks that a //lint:ignore with no reason is
// itself reported, under the "ignore" pseudo-rule.
func TestMalformedDirective(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDirs("internal/lint/testdata/src/ignore/ignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l.Fset, Suite(), pkgs)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Rule != "ignore" || !strings.Contains(diags[0].Message, "malformed directive") {
		t.Fatalf("unexpected diagnostic: %s", diags[0])
	}
}

// TestModuleLintsClean runs the full suite over the real module: the
// codebase must stay clean (every deliberate exception carries its own
// suppression with a reason).
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l.Fset, Suite(), pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
