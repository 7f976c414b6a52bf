package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ioPackages are the context-threaded layers: every I/O-capable exported
// function there must take a context.Context first. Matching is on the
// final import path segment so the rule also applies to testdata
// fixtures laid out under a directory of the same name.
var ioPackages = []string{"storage", "rpc", "core", "metadata", "stats", "transport"}

// lifecycleNames are teardown/lifecycle methods that legitimately block
// without a caller context (they are bounded by the component's own
// shutdown protocol, not by a request).
var lifecycleNames = map[string]bool{
	"Close": true, "Stop": true, "Wait": true, "Shutdown": true, "Flush": true,
}

// CtxFirst enforces the context plumbing invariants established by the
// fault-tolerance layer:
//
//  1. A function with a context.Context parameter takes it first.
//  2. context.Background()/context.TODO() appear only under cmd/ and
//     examples/ (and tests, which are not linted): library code must use
//     the caller's context, deriving detached lifetimes with
//     context.WithoutCancel.
//  3. In the I/O packages, an exported function that blocks (calls a
//     context-taking function, performs channel operations, selects, or
//     sleeps) must itself take a context.Context first. Lifecycle
//     methods (Close, Stop, Wait, Shutdown, Flush) are exempt.
func CtxFirst() *Analyzer {
	return &Analyzer{
		Name: "ctxfirst",
		Doc:  "context.Context-first APIs; no context.Background in library paths",
		Run:  runCtxFirst,
	}
}

func runCtxFirst(pass *Pass) {
	mainAllowed := pass.HasSegment("cmd", "examples")
	ioScoped := false
	last := pass.LastSegment()
	for _, p := range ioPackages {
		if last == p {
			ioScoped = true
		}
	}

	for _, f := range pass.Files {
		// Rule 2: no ambient contexts outside program entry points.
		if !mainAllowed {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObj(pass.Info, call)
				if isPkgFunc(obj, "context", "Background") || isPkgFunc(obj, "context", "TODO") {
					pass.Reportf(call.Pos(), "context.%s in library code: accept the caller's context (derive detached lifetimes with context.WithoutCancel)", obj.Name())
				}
				return true
			})
		}

		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			sig := obj.Type().(*types.Signature)

			// Rule 1: a context parameter must come first.
			if idx, ok := hasContextParam(sig); ok && idx != 0 {
				pass.Reportf(fd.Name.Pos(), "%s takes context.Context as parameter %d: context must be the first parameter", fd.Name.Name, idx+1)
				continue
			}

			// Rule 3: exported blocking functions in I/O packages.
			if !ioScoped || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			if _, ok := hasContextParam(sig); ok || lifecycleNames[fd.Name.Name] {
				continue
			}
			if pos, blocks := firstBlockingOp(pass.Info, fd.Body); blocks {
				pass.Reportf(fd.Name.Pos(), "exported function %s performs blocking I/O (%s) but takes no context.Context; add one as the first parameter", fd.Name.Name, pass.Fset.Position(pos))
			}
		}
	}
}

// firstBlockingOp finds the first operation in body that can block the
// calling goroutine: a call into a context-taking API, a channel send or
// receive, a select, or time.Sleep. Goroutine launches and closure
// definitions do not block and are not descended into.
func firstBlockingOp(info *types.Info, body *ast.BlockStmt) (token.Pos, bool) {
	var found ast.Node
	walkShallow(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = n
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = n
			}
		case *ast.CallExpr:
			obj := calleeObj(info, n)
			if isPkgFunc(obj, "time", "Sleep") {
				found = n
				return false
			}
			// A callee taking a context first is the marker for network
			// and storage I/O; the context package's own constructors
			// obviously do not count.
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
				return true
			}
			if sig := calleeSignature(info, n); sig != nil && firstParamIsContext(sig) {
				found = n
				return false
			}
		}
		return found == nil
	})
	if found == nil {
		return 0, false
	}
	return found.Pos(), true
}
