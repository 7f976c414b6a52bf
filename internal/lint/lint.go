// Package lint is ecstore's project-specific static-analysis suite. It
// loads and type-checks the whole module with only the standard library
// (see load.go) and runs analyzers that enforce the invariants the
// codebase's concurrency, context, and determinism layers depend on:
//
//	ctxfirst    context-first APIs; no context.Background outside cmd/examples
//	lockblock   no blocking operations while a sync.Mutex is held, including
//	            one-level interprocedural: calls (across packages) into
//	            functions that directly block are flagged under a held lock
//	goleak      goroutines must be cancelable or tracked; `go f(...)` into a
//	            named module function checks f's body too
//	determinism sim/faults/workload stay seeded and order-stable
//	errwrap     %w wrapping and errors.Is for sentinels
//	metricname  metric names are well-formed and unique module-wide
//	lockorder   the module-wide mutex-acquisition-order graph (propagated
//	            through calls made while a lock is held) must be acyclic;
//	            cycles are reported with the full acquisition path
//	poolbalance values from sync.Pool.Get and the project pool helpers
//	            (bufpool.Get, wire.GetEncoder, erasure.EncodePooled, ...) must
//	            reach a matching Put/Release on every path, defer included
//
// The interprocedural rules share a module-wide call graph (callgraph.go)
// built from the same go/types load: static calls resolve to their one
// declared callee, interface calls to every module implementation.
//
// A finding is suppressed by a directive comment
//
//	//lint:ignore <rule> <reason>
//
// placed on the finding's line, the line above it, or in the doc comment
// of the enclosing top-level declaration (which suppresses the rule for
// the whole declaration). The reason is mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one lint rule. Run inspects a single package and reports
// findings through the pass; analyzers observe packages in sorted import
// path order, so module-wide state (metricname's uniqueness map) is
// deterministic. RunModule, if set, runs once per suite invocation after
// every per-package pass, with access to the whole loaded module and its
// call graph — the interprocedural rules (lockorder) live there. An
// analyzer may set either hook or both.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one package through one analyzer. Mod exposes the
// whole-run module state (all loaded packages plus the lazily built
// call graph) so per-package rules can resolve cross-package callees.
type Pass struct {
	*Package
	Fset *token.FileSet
	Mod  *Module

	rule   string
	report func(Diagnostic)
}

// ModulePass carries the whole module through one module-level
// analyzer. Diagnostics may land in any loaded package; suppressions
// apply exactly as they do for per-package passes.
type ModulePass struct {
	Mod  *Module
	Fset *token.FileSet

	rule   string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Segments returns the package path split on '/'; analyzers use it to
// scope rules to parts of the tree ("cmd", "examples", "storage", ...).
func (p *Pass) Segments() []string { return strings.Split(p.Path, "/") }

// HasSegment reports whether any path segment equals one of names.
func (p *Pass) HasSegment(names ...string) bool {
	for _, seg := range p.Segments() {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// LastSegment returns the final package path segment.
func (p *Pass) LastSegment() string {
	segs := p.Segments()
	return segs[len(segs)-1]
}

// Suite returns a fresh instance of every analyzer. Instances hold
// module-wide state (metricname), so each Run of the suite needs its own.
func Suite() []*Analyzer {
	return []*Analyzer{
		CtxFirst(),
		LockBlock(),
		GoLeak(),
		Determinism(),
		ErrWrap(),
		MetricName(),
		LockOrder(),
		PoolBalance(),
	}
}

// ByName filters analyzers to the named rules; unknown names error.
func ByName(analyzers []*Analyzer, names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to the packages, drops suppressed findings,
// and returns the rest sorted by position. Per-package hooks run first
// (packages in sorted import-path order), then each analyzer's module
// hook runs once over the whole set. Malformed //lint:ignore directives
// (missing rule or reason) are themselves reported under the "ignore"
// pseudo-rule.
func Run(fset *token.FileSet, analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	mod := NewModule(fset, pkgs)
	sup := &suppressions{
		lines: make(map[string]map[int][]string),
		decls: make(map[string][]declRange),
	}
	for _, pkg := range pkgs {
		sup.collect(fset, pkg)
	}
	diags = append(diags, sup.malformed...)
	report := func(d Diagnostic) {
		if !sup.covers(d) {
			diags = append(diags, d)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{
				Package: pkg,
				Fset:    fset,
				Mod:     mod,
				rule:    a.Name,
				report:  report,
			})
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{
			Mod:    mod,
			Fset:   fset,
			rule:   a.Name,
			report: report,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// suppressions indexes //lint:ignore directives across the loaded
// packages (module rules may report in any of them).
type suppressions struct {
	// lines maps file name -> line -> suppressed rule names.
	lines map[string]map[int][]string
	// decls maps file name -> [start line, end line] ranges per rule,
	// from directives in top-level declaration doc comments.
	decls     map[string][]declRange
	malformed []Diagnostic
}

type declRange struct {
	rule       string
	start, end int
}

const ignoreDirective = "//lint:ignore"

// collect indexes one package's directives into s.
func (s *suppressions) collect(fset *token.FileSet, pkg *Package) {
	for _, f := range pkg.Files {
		fname := fset.Position(f.Pos()).Filename

		// Doc-comment directives scope to the whole declaration.
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				// Malformed reporting happens in the comment loop below,
				// which sees every comment (including doc comments).
				rule, ok := s.parse(fset, c, false)
				if !ok {
					continue
				}
				s.decls[fname] = append(s.decls[fname], declRange{
					rule:  rule,
					start: fset.Position(decl.Pos()).Line,
					end:   fset.Position(decl.End()).Line,
				})
			}
		}

		// Every other directive suppresses its own line and the next.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, ok := s.parse(fset, c, true)
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				if s.lines[fname] == nil {
					s.lines[fname] = make(map[int][]string)
				}
				s.lines[fname][line] = append(s.lines[fname][line], rule)
				s.lines[fname][line+1] = append(s.lines[fname][line+1], rule)
			}
		}
	}
}

// parse extracts the rule from one directive comment, reporting
// malformed directives when report is set. The second return is false
// for non-directives and malformed ones alike.
func (s *suppressions) parse(fset *token.FileSet, c *ast.Comment, report bool) (string, bool) {
	rule, ok, malformed := parseIgnoreDirective(c.Text)
	if malformed && report {
		s.malformed = append(s.malformed, Diagnostic{
			Pos:     fset.Position(c.Pos()),
			Rule:    "ignore",
			Message: "malformed directive: want //lint:ignore <rule> <reason>",
		})
	}
	return rule, ok
}

// parseIgnoreDirective parses one comment's text as a //lint:ignore
// directive. ok means a well-formed directive (rule and a reason
// present); malformed means the comment is the directive but is missing
// the rule or the reason. Prose that merely starts with the letters
// ("//lint:ignored below") is neither: the directive token must be
// followed by whitespace.
func parseIgnoreDirective(text string) (rule string, ok, malformed bool) {
	if !strings.HasPrefix(text, ignoreDirective) {
		return "", false, false
	}
	rest := strings.TrimPrefix(text, ignoreDirective)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", false, true
	}
	return fields[0], true, false
}

func (s *suppressions) covers(d Diagnostic) bool {
	for _, rule := range s.lines[d.Pos.Filename][d.Pos.Line] {
		if rule == d.Rule {
			return true
		}
	}
	for _, dr := range s.decls[d.Pos.Filename] {
		if dr.rule == d.Rule && d.Pos.Line >= dr.start && d.Pos.Line <= dr.end {
			return true
		}
	}
	return false
}
