package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolBalance checks that every value obtained from a pool reaches a
// matching release on all paths. Pool sources are (*sync.Pool).Get and
// any module function inferred (transitively, through the call graph)
// to return a pooled value — bufpool.Get, wire.GetEncoder,
// erasure.EncodePooled and friends qualify without being hardcoded.
// Releasers are (*sync.Pool).Put and any module function that passes a
// parameter (or its receiver) to a releaser — bufpool.Put,
// wire.PutEncoder, (*Stripe).Release.
//
// Each function (and each function literal, as its own unit) is walked
// with branch-aware, optimistic path tracking: a pooled value assigned
// to a plain local variable must be released, deferred-released,
// returned (ownership moves to the caller), or escape (stored in a
// field/global, passed to a non-releaser call, captured by a closure —
// after which this analysis trusts the new owner) before every return
// and before function end. Filling the buffer is not an escape: the
// builtins copy/len/cap/clear and reads under the io.Reader contract
// ("implementations must not retain p": io.ReadFull, io.ReadAtLeast,
// any Read or ReadAt method) only borrow their argument, so a frame
// buffer that is read into and then dropped on the error path is found. The error-return idiom is understood:
// after `v, err := Source(...)`, paths guarded by `err != nil` treat v
// as absent. Releasing the same variable twice in straight-line code is
// reported as a double release, and discarding a source's result
// (calling it as a statement) is reported as an immediate leak.
// Branches merge optimistically (released in either arm counts as
// released), so the rule under-reports rather than flag correct code.
func PoolBalance() *Analyzer {
	return &Analyzer{
		Name:      "poolbalance",
		Doc:       "pooled values must reach a matching Put/Release on every path",
		RunModule: runPoolBalance,
	}
}

type poolBalanceState struct {
	mp    *ModulePass
	graph *CallGraph

	// sources maps module functions that return a pooled value; the
	// string describes the ultimate origin for diagnostics.
	sources map[*FuncInfo]bool
	// releaseParams maps module functions to the parameter indexes they
	// release; index -1 means the receiver.
	releaseParams map[*FuncInfo]map[int]bool

	srcVisiting map[*FuncInfo]bool
	relVisiting map[*FuncInfo]bool
}

func runPoolBalance(mp *ModulePass) {
	st := &poolBalanceState{
		mp:            mp,
		graph:         mp.Mod.Graph(),
		sources:       make(map[*FuncInfo]bool),
		releaseParams: make(map[*FuncInfo]map[int]bool),
		srcVisiting:   make(map[*FuncInfo]bool),
		relVisiting:   make(map[*FuncInfo]bool),
	}
	for _, fi := range st.graph.Funcs() {
		st.checkFunc(fi.Pkg, fi.Decl.Body)
		// Function literals are separate execution units with their own
		// pool obligations.
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				st.checkFunc(fi.Pkg, lit.Body)
			}
			return true
		})
	}
}

// isPoolGet reports whether call is (*sync.Pool).Get.
func isPoolGet(pkg *Package, call *ast.CallExpr) bool {
	return isMethodOf(calleeObj(pkg.Info, call), "sync", "Pool", "Get")
}

// isPoolPut reports whether call is (*sync.Pool).Put.
func isPoolPut(pkg *Package, call *ast.CallExpr) bool {
	return isMethodOf(calleeObj(pkg.Info, call), "sync", "Pool", "Put")
}

// isSourceFn reports whether fi returns a pooled value: directly from
// (*sync.Pool).Get, or from another source function, without releasing
// it first. The scan is deliberately simple — a variable assigned from
// a source call (through parens and type assertions, and through plain
// ident aliasing) that appears in a return statement marks the function.
func (st *poolBalanceState) isSourceFn(fi *FuncInfo) bool {
	if v, ok := st.sources[fi]; ok {
		return v
	}
	if st.srcVisiting[fi] {
		return false
	}
	st.srcVisiting[fi] = true
	defer delete(st.srcVisiting, fi)

	pooled := make(map[types.Object]bool)
	isSourceCall := func(call *ast.CallExpr) bool {
		if isPoolGet(fi.Pkg, call) {
			return true
		}
		callees, iface := st.graph.CalleeOf(fi.Pkg, call)
		if iface || len(callees) != 1 {
			return false
		}
		return st.isSourceFn(callees[0])
	}
	exprPooled := func(e ast.Expr) bool {
		e = unwrapPooled(e)
		if call, ok := e.(*ast.CallExpr); ok {
			return isSourceCall(call)
		}
		if id, ok := e.(*ast.Ident); ok {
			return pooled[fi.Pkg.Info.Uses[id]]
		}
		return false
	}

	result := false
	walkShallow(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 && i == 0 {
					rhs = n.Rhs[0]
				}
				if rhs != nil && exprPooled(rhs) {
					if obj := fi.Pkg.Info.Defs[id]; obj != nil {
						pooled[obj] = true
					} else if obj := fi.Pkg.Info.Uses[id]; obj != nil {
						pooled[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if exprPooled(res) {
					result = true
				}
			}
		}
		return true
	})
	st.sources[fi] = result
	return result
}

// unwrapPooled strips the expressions a pooled value flows through
// unchanged: parens, type assertions `v.(*T)`, reslicing `v[:n]`, and
// the unsafe.Slice / unsafe.SliceData conversions between a buffer and
// its base pointer (bufpool pools the bare pointer).
func unwrapPooled(e ast.Expr) ast.Expr {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.TypeAssertExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.CallExpr:
			if !isUnsafeSliceConv(t) {
				return t
			}
			e = t.Args[0]
		default:
			return t
		}
	}
}

// isUnsafeSliceConv reports whether call is unsafe.Slice(p, n) or
// unsafe.SliceData(s): the same memory under another type.
func isUnsafeSliceConv(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "unsafe" && (sel.Sel.Name == "Slice" || sel.Sel.Name == "SliceData")
}

// releaserOf returns the parameter indexes (receiver = -1) that fi
// releases, inferred transitively: a parameter passed (as a plain
// ident) to (*sync.Pool).Put or to another releaser's releasing
// position counts.
func (st *poolBalanceState) releaserOf(fi *FuncInfo) map[int]bool {
	if m, ok := st.releaseParams[fi]; ok {
		return m
	}
	if st.relVisiting[fi] {
		return nil
	}
	st.relVisiting[fi] = true
	defer delete(st.relVisiting, fi)

	// Map each parameter/receiver object to its index.
	paramIdx := make(map[types.Object]int)
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) == 1 && len(fi.Decl.Recv.List[0].Names) == 1 {
		if obj := fi.Pkg.Info.Defs[fi.Decl.Recv.List[0].Names[0]]; obj != nil {
			paramIdx[obj] = -1
		}
	}
	idx := 0
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil {
					paramIdx[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	released := make(map[int]bool)
	walkShallow(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, pos := range st.releaseArgs(fi.Pkg, call) {
			if id, ok := unwrapPooled(pos).(*ast.Ident); ok {
				if i, ok := paramIdx[fi.Pkg.Info.Uses[id]]; ok {
					released[i] = true
				}
			}
		}
		return true
	})
	st.releaseParams[fi] = released
	return released
}

// releaseArgs returns the argument expressions (receiver included)
// that call releases, or nil if call is not a releasing call.
func (st *poolBalanceState) releaseArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	if isPoolPut(pkg, call) && len(call.Args) == 1 {
		return call.Args[:1]
	}
	callees, iface := st.graph.CalleeOf(pkg, call)
	if iface || len(callees) != 1 {
		return nil
	}
	idxs := st.releaserOf(callees[0])
	if len(idxs) == 0 {
		return nil
	}
	var out []ast.Expr
	if idxs[-1] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		}
	}
	for i, arg := range call.Args {
		if idxs[i] {
			out = append(out, arg)
		}
	}
	return out
}

// pooledVar tracks one local variable holding a pooled value.
type pooledVar struct {
	name     string
	origin   string    // description of the source, e.g. "stripePool.Get"
	pos      token.Pos // source call site
	released bool
	deferred bool
	escaped  bool
}

// pbScope is the per-path state of the balance walk.
type pbScope struct {
	vars map[types.Object]*pooledVar
	// errOf associates an error variable with the pooled variable
	// assigned in the same statement, for the err != nil idiom.
	errOf map[types.Object]types.Object
}

func (s *pbScope) clone() *pbScope {
	c := &pbScope{vars: make(map[types.Object]*pooledVar, len(s.vars)), errOf: s.errOf}
	for k, v := range s.vars {
		cv := *v
		c.vars[k] = &cv
	}
	return c
}

// merge folds a branch scope back optimistically: a release or escape
// on either path counts, and variables first seen in the branch are
// adopted so function-end checking covers them.
func (s *pbScope) merge(b *pbScope) {
	for k, bv := range b.vars {
		if sv, ok := s.vars[k]; ok {
			sv.released = sv.released || bv.released
			sv.deferred = sv.deferred || bv.deferred
			sv.escaped = sv.escaped || bv.escaped
		} else {
			s.vars[k] = bv
		}
	}
}

// terminates reports whether a statement list cannot fall through: it
// ends in a return, a break/continue/goto, or an if whose arms both
// terminate. Branch scopes that terminate are not merged back — their
// releases never happen on the fall-through path (this is what keeps
// `case EOF: Release(buf); continue` from turning a later error-path
// Release into a phantom double release).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		if s.Else == nil || !terminates(s.Body.List) {
			return false
		}
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			return terminates(e.List)
		case *ast.IfStmt:
			return terminates([]ast.Stmt{e})
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (st *poolBalanceState) checkFunc(pkg *Package, body *ast.BlockStmt) {
	scope := &pbScope{
		vars:  make(map[types.Object]*pooledVar),
		errOf: make(map[types.Object]types.Object),
	}
	st.walkStmts(pkg, body.List, scope)
	for _, v := range sortedPooled(scope.vars) {
		if !v.released && !v.deferred && !v.escaped {
			st.mp.Reportf(v.pos, "pooled value %s obtained from %s is never released (no Put/Release on the fall-through path)", v.name, v.origin)
		}
	}
}

// sortedPooled orders tracked variables by source position for
// deterministic reporting.
func sortedPooled(m map[types.Object]*pooledVar) []*pooledVar {
	var out []*pooledVar
	for _, v := range m {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].pos > out[j].pos; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// sourceCallOrigin classifies call as a pool source and names it.
func (st *poolBalanceState) sourceCallOrigin(pkg *Package, call *ast.CallExpr) (string, bool) {
	if isPoolGet(pkg, call) {
		return types.ExprString(call.Fun), true
	}
	callees, iface := st.graph.CalleeOf(pkg, call)
	if iface || len(callees) != 1 {
		return "", false
	}
	if st.isSourceFn(callees[0]) {
		return callees[0].Name(), true
	}
	return "", false
}

func (st *poolBalanceState) walkStmts(pkg *Package, stmts []ast.Stmt, sc *pbScope) {
	for _, stmt := range stmts {
		st.walkStmt(pkg, stmt, sc)
	}
}

// escapeIdents marks tracked variables whose pointer flows out of the
// function's hands anywhere in n as escaped — the safe default for
// constructs the walk does not model. Dereferencing uses (v.field,
// v[i]) keep the value tracked: writing into the pooled object is what
// the buffer is for, only the pointer itself moving transfers
// ownership.
func escapeIdents(pkg *Package, n ast.Node, sc *pbScope) {
	if n == nil {
		return
	}
	deref := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.CallExpr:
			if borrowsArgs(pkg, e) {
				for _, arg := range e.Args {
					if id, ok := unwrapPooled(arg).(*ast.Ident); ok {
						deref[id] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				deref[id] = true
			}
			deref[e.Sel] = true
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				deref[id] = true
			}
		case *ast.Ident:
			if deref[e] {
				return true
			}
			if v, ok := sc.vars[pkg.Info.Uses[e]]; ok {
				v.escaped = true
			}
		}
		return true
	})
}

// borrowsArgs reports whether call only borrows its arguments for its
// own duration: the size and fill builtins, and reads under the
// io.Reader contract, which forbids retaining the buffer.
func borrowsArgs(pkg *Package, call *ast.CallExpr) bool {
	switch obj := calleeObj(pkg.Info, call).(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "copy", "len", "cap", "clear":
			return true
		}
	case *types.Func:
		if isPkgFunc(obj, "io", "ReadFull") || isPkgFunc(obj, "io", "ReadAtLeast") {
			return true
		}
		sig := obj.Type().(*types.Signature)
		return sig.Recv() != nil && (obj.Name() == "Read" || obj.Name() == "ReadAt")
	}
	return false
}

func (st *poolBalanceState) walkStmt(pkg *Package, stmt ast.Stmt, sc *pbScope) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		st.walkAssign(pkg, s, sc)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			escapeIdents(pkg, s, sc)
			return
		}
		if st.applyRelease(pkg, call, sc, false) {
			return
		}
		if origin, ok := st.sourceCallOrigin(pkg, call); ok {
			st.mp.Reportf(call.Pos(), "result of pool source %s is discarded: the pooled value leaks immediately", origin)
			return
		}
		escapeIdents(pkg, s, sc)
	case *ast.DeferStmt:
		if st.applyRelease(pkg, s.Call, sc, true) {
			return
		}
		// A deferred closure may carry the release.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			found := false
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if st.applyRelease(pkg, call, sc, true) {
						found = true
					}
				}
				return true
			})
			if found {
				return
			}
		}
		escapeIdents(pkg, s, sc)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if id, ok := unwrapPooled(res).(*ast.Ident); ok {
				if v, ok := sc.vars[pkg.Info.Uses[id]]; ok {
					v.escaped = true // ownership moves to the caller
					continue
				}
			}
			escapeIdents(pkg, res, sc)
		}
		for _, v := range sortedPooled(sc.vars) {
			if !v.released && !v.deferred && !v.escaped {
				st.mp.Reportf(s.Pos(), "return without releasing pooled value %s obtained from %s at line %d", v.name, v.origin, st.mp.Fset.Position(v.pos).Line)
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			st.walkStmt(pkg, s.Init, sc)
		}
		suspendThen, suspendElse := errGuard(pkg, s.Cond, sc)
		// Nil guard on the pooled variable itself: `if v == nil` means v
		// is absent in the then branch; `if v != nil { ...return }`
		// means v is absent after the if.
		nilObj, nilEq := nilGuard(pkg, s.Cond, sc)
		if nilObj != nil && nilEq {
			suspendThen = append(suspendThen, nilObj)
		}
		base := sc.clone() // both arms start from the pre-branch state
		thenScope := base.clone()
		for _, obj := range suspendThen {
			delete(thenScope.vars, obj)
		}
		st.walkStmts(pkg, s.Body.List, thenScope)
		for _, obj := range suspendThen {
			delete(thenScope.vars, obj) // do not re-adopt the suspended var
		}
		if !terminates(s.Body.List) {
			sc.merge(thenScope)
		}
		if s.Else != nil {
			elseScope := base.clone()
			for _, obj := range suspendElse {
				delete(elseScope.vars, obj)
			}
			var elseStmts []ast.Stmt
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseStmts = e.List
				st.walkStmts(pkg, e.List, elseScope)
			case *ast.IfStmt:
				elseStmts = []ast.Stmt{e}
				st.walkStmt(pkg, e, elseScope)
			}
			for _, obj := range suspendElse {
				delete(elseScope.vars, obj)
			}
			if !terminates(elseStmts) {
				sc.merge(elseScope)
			}
		}
		if nilObj != nil && !nilEq && terminates(s.Body.List) {
			// `if v != nil { ... return/continue }`: past this point v
			// is nil, so it carries no release obligation.
			delete(sc.vars, nilObj)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st.walkStmt(pkg, s.Init, sc)
		}
		escapeIdents(pkg, s.Cond, sc)
		branch := sc.clone()
		st.walkStmts(pkg, s.Body.List, branch)
		if s.Post != nil {
			st.walkStmt(pkg, s.Post, branch)
		}
		sc.merge(branch)
	case *ast.RangeStmt:
		escapeIdents(pkg, s.X, sc)
		branch := sc.clone()
		st.walkStmts(pkg, s.Body.List, branch)
		sc.merge(branch)
	case *ast.BlockStmt:
		st.walkStmts(pkg, s.List, sc)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st.walkStmt(pkg, s.Init, sc)
		}
		escapeIdents(pkg, s.Tag, sc)
		base := sc.clone() // every case starts from the pre-switch state
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				branch := base.clone()
				st.walkStmts(pkg, cc.Body, branch)
				if !terminates(cc.Body) {
					sc.merge(branch)
				}
			}
		}
	case *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.GoStmt, *ast.LabeledStmt:
		escapeIdents(pkg, stmt, sc)
	default:
		escapeIdents(pkg, stmt, sc)
	}
}

// walkAssign handles v := Source(...) tracking, the paired error
// variable, and escapes through any other use.
func (st *poolBalanceState) walkAssign(pkg *Package, s *ast.AssignStmt, sc *pbScope) {
	// v := Source(...) or v, err := Source(...).
	if len(s.Rhs) == 1 {
		if call, ok := unwrapPooled(s.Rhs[0]).(*ast.CallExpr); ok {
			if origin, ok := st.sourceCallOrigin(pkg, call); ok {
				var tracked types.Object
				switch lhs := s.Lhs[0].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						// Explicitly discarded pooled value.
						st.mp.Reportf(call.Pos(), "result of pool source %s is discarded: the pooled value leaks immediately", origin)
					} else if obj := lhsObj(pkg, lhs); obj != nil {
						tracked = obj
						sc.vars[obj] = &pooledVar{name: lhs.Name, origin: origin, pos: call.Pos()}
					}
				default:
					// Stored into a field, map or slice element: the
					// value escapes to the new owner, who releases it.
					escapeIdents(pkg, lhs, sc)
				}
				// Pair the error result for the err != nil idiom.
				if tracked != nil && len(s.Lhs) == 2 {
					if id, ok := s.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
						if obj := lhsObj(pkg, id); obj != nil {
							sc.errOf[obj] = tracked
						}
					}
				}
				return
			}
		}
	}
	// Reassigning a tracked variable unties the old value; any tracked
	// variable used on the right-hand side escapes.
	for _, rhs := range s.Rhs {
		escapeIdents(pkg, rhs, sc)
	}
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := sc.vars[pkg.Info.Uses[id]]; ok {
				v.escaped = true
			}
			continue
		}
		escapeIdents(pkg, lhs, sc)
	}
}

// lhsObj resolves the object an assignment left-hand ident binds:
// Defs for :=, Uses for =.
func lhsObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

// applyRelease marks tracked variables released by call. deferred
// releases cover every later return. A second (non-deferred) release of
// an already released variable is a double-release finding. It returns
// whether call was a releasing call on a tracked variable.
func (st *poolBalanceState) applyRelease(pkg *Package, call *ast.CallExpr, sc *pbScope, deferred bool) bool {
	args := st.releaseArgs(pkg, call)
	if len(args) == 0 {
		return false
	}
	any := false
	for _, arg := range args {
		id, ok := unwrapPooled(arg).(*ast.Ident)
		if !ok {
			escapeIdents(pkg, arg, sc)
			continue
		}
		v, ok := sc.vars[pkg.Info.Uses[id]]
		if !ok {
			continue
		}
		any = true
		if v.released || v.deferred {
			st.mp.Reportf(call.Pos(), "pooled value %s released twice (first release covers it; a second Put corrupts the pool)", v.name)
			continue
		}
		if deferred {
			v.deferred = true
		} else {
			v.released = true
		}
	}
	// Even when no tracked var matched, a releasing call consumed its
	// arguments; nothing else to escape.
	return any || len(args) > 0
}

// errGuard matches the error-check idiom on an if condition: for
// `err != nil` the paired pooled variable is absent in the then branch
// (suspendThen); for `err == nil` it is absent in the else branch.
func errGuard(pkg *Package, cond ast.Expr, sc *pbScope) (suspendThen, suspendElse []types.Object) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil, nil
	}
	var errExpr ast.Expr
	switch {
	case isNilIdent(be.Y):
		errExpr = be.X
	case isNilIdent(be.X):
		errExpr = be.Y
	default:
		return nil, nil
	}
	id, ok := ast.Unparen(errExpr).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	obj := pkg.Info.Uses[id]
	pooledObj, ok := sc.errOf[obj]
	if !ok {
		return nil, nil
	}
	v, ok := sc.vars[pooledObj]
	if !ok || v.released || v.deferred || v.escaped {
		return nil, nil
	}
	switch be.Op {
	case token.NEQ:
		return []types.Object{pooledObj}, nil
	case token.EQL:
		return nil, []types.Object{pooledObj}
	}
	return nil, nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// nilGuard matches a nil comparison against a tracked pooled variable:
// `v == nil` (eq=true) or `v != nil` (eq=false).
func nilGuard(pkg *Package, cond ast.Expr, sc *pbScope) (obj types.Object, eq bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	var varExpr ast.Expr
	switch {
	case isNilIdent(be.Y):
		varExpr = be.X
	case isNilIdent(be.X):
		varExpr = be.Y
	default:
		return nil, false
	}
	id, ok := ast.Unparen(varExpr).(*ast.Ident)
	if !ok {
		return nil, false
	}
	o := pkg.Info.Uses[id]
	if _, tracked := sc.vars[o]; !tracked {
		return nil, false
	}
	return o, be.Op == token.EQL
}
