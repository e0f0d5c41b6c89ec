package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// scanMode selects which operations scanOps reports.
type scanMode int

const (
	// scanForFacts summarizes whole-function behavior for the vetx
	// export: allocation-relevant ops everywhere in the body, cold
	// branches included (a callee's record branch is still reachable).
	scanForFacts scanMode = iota
	// scanForHot checks a function on the hot path: cold-guarded
	// branches (//simlint:cold, or an if on a bare record flag)
	// are excluded, and order-sensitive ops (map range) are reported
	// too.
	scanForHot
)

// opKind classifies one reported operation.
type opKind int

const (
	opAlloc   opKind = iota // heap allocation (desc says which)
	opHotOnly               // prohibited on hot paths but allocation-free (map range)
	opCall                  // a resolved static call (samePkg or pkgPath+callee)
	opDynamic               // interface-method or func-value call
)

// op is one operation of interest found in a function body.
type op struct {
	pos  token.Pos
	kind opKind
	desc string

	samePkg string // funcKey of a same-package callee (opCall)
	pkgPath string // import path of a cross-package callee (opCall)
	callee  string // funcKey within pkgPath (opCall)
}

// scanOps walks one function body and reports allocations, prohibited
// statements and calls. It never descends into func literals (the
// literal itself is the allocation; its body runs elsewhere) and, in
// hot mode, never into cold if-bodies.
func scanOps(u *Unit, fd *ast.FuncDecl, mode scanMode) []op {
	if fd.Body == nil {
		return nil
	}
	var ops []op
	cold := make(map[*ast.BlockStmt]bool)
	if mode == scanForHot {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			if u.pragmas.coldIfs[ifs] || coldCond(ifs.Cond) {
				cold[ifs.Body] = true
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			if cold[n] {
				return false
			}
		case *ast.FuncLit:
			ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "heap allocation (func literal)"})
			return false
		case *ast.GoStmt:
			ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "go statement"})
			return false
		case *ast.DeferStmt:
			ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "defer"})
			return false
		case *ast.CompositeLit:
			if d := compositeDesc(u, n, false); d != "" {
				ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: d})
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "heap allocation (&composite literal)"})
					// Don't double-report the literal itself.
					ops = append(ops, scanComposite(u, cl)...)
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(u, n) {
				ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "string concatenation"})
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(u, n.Lhs[0]) {
				ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "string concatenation"})
			}
		case *ast.RangeStmt:
			if mode == scanForHot && isMapExpr(u, n.X) {
				ops = append(ops, op{pos: n.Pos(), kind: opHotOnly, desc: "range over map"})
			}
		case *ast.CallExpr:
			ops = append(ops, classifyCall(u, n)...)
		}
		return true
	})
	return ops
}

// scanComposite reports allocations nested inside a composite literal
// whose outer &-allocation was already reported.
func scanComposite(u *Unit, cl *ast.CompositeLit) []op {
	var ops []op
	for _, el := range cl.Elts {
		ast.Inspect(el, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if d := compositeDesc(u, n, false); d != "" {
					ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: d})
				}
			case *ast.CallExpr:
				ops = append(ops, classifyCall(u, n)...)
			case *ast.FuncLit:
				ops = append(ops, op{pos: n.Pos(), kind: opAlloc, desc: "heap allocation (func literal)"})
				return false
			}
			return true
		})
	}
	return ops
}

// coldCond recognizes the repo's hoisted-flag guard: a bare (possibly
// &&-joined) identifier or selector whose final name is record.
// `if x.record { ... }` bodies only run for observed executions and are
// excluded from hot checks without needing an annotation.
func coldCond(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return coldFlagName(e.Name)
	case *ast.SelectorExpr:
		return coldFlagName(e.Sel.Name)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return coldCond(e.X) && coldCond(e.Y)
		}
	}
	return false
}

func coldFlagName(name string) bool { return strings.ToLower(name) == "record" }

// compositeDesc reports whether a composite literal allocates on the
// heap: map, slice and func-typed literals do; bare struct and array
// literals are values. addressed is true when the caller already
// reported an enclosing &.
func compositeDesc(u *Unit, cl *ast.CompositeLit, addressed bool) string {
	if addressed {
		return ""
	}
	if u.Info != nil {
		if tv, ok := u.Info.Types[cl]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				return "heap allocation (map literal)"
			case *types.Slice:
				return "heap allocation (slice literal)"
			}
			return ""
		}
	}
	// Syntactic fallback for untypeable code.
	switch t := cl.Type.(type) {
	case *ast.MapType:
		return "heap allocation (map literal)"
	case *ast.ArrayType:
		if t.Len == nil {
			return "heap allocation (slice literal)"
		}
	}
	return ""
}

func isNonConstString(u *Unit, e *ast.BinaryExpr) bool {
	if u.Info == nil {
		return false
	}
	tv, ok := u.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false // untyped or constant-folded
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringExpr(u *Unit, e ast.Expr) bool {
	if u.Info == nil {
		return false
	}
	tv, ok := u.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isMapExpr(u *Unit, e ast.Expr) bool {
	if u.Info == nil {
		return false
	}
	tv, ok := u.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// classifyCall resolves one call expression into ops: the call edge
// itself (static, dynamic, builtin or conversion) plus any interface
// boxing its arguments perform. Unresolvable calls (missing type info)
// yield nothing: degradation hides findings, it must not invent them.
func classifyCall(u *Unit, call *ast.CallExpr) []op {
	var ops []op
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: F[T](x) / F[T1, T2](x).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(u, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		obj := objOf(u, fn)
		switch o := obj.(type) {
		case *types.Builtin:
			ops = append(ops, builtinOp(call, o.Name())...)
			return ops
		case *types.TypeName:
			ops = append(ops, conversionOp(u, call)...)
			return ops
		case *types.Func:
			ops = append(ops, staticCallOp(u, call, o))
		case *types.Var:
			ops = append(ops, op{pos: call.Pos(), kind: opDynamic, desc: "dynamic call (interface method or function value)"})
		default:
			// No type info. Builtins are still recognizable by name;
			// other idents degrade to a same-package edge for facts.
			switch fn.Name {
			case "make", "new":
				ops = append(ops, builtinOp(call, fn.Name)...)
				return ops
			case "len", "cap", "append", "copy", "delete", "panic", "recover", "print", "println", "min", "max", "clear":
				return ops
			}
			ops = append(ops, op{pos: call.Pos(), kind: opCall, samePkg: fn.Name})
		}
	case *ast.SelectorExpr:
		if u.Info != nil {
			if sel, ok := u.Info.Selections[fn]; ok {
				switch sel.Kind() {
				case types.MethodVal:
					f, _ := sel.Obj().(*types.Func)
					if f == nil {
						return ops
					}
					if types.IsInterface(sel.Recv()) {
						ops = append(ops, op{pos: call.Pos(), kind: opDynamic, desc: "dynamic call (interface method or function value)"})
					} else {
						ops = append(ops, staticCallOp(u, call, f))
					}
				case types.FieldVal:
					ops = append(ops, op{pos: call.Pos(), kind: opDynamic, desc: "dynamic call (interface method or function value)"})
				}
				ops = append(ops, boxingOps(u, call)...)
				return ops
			}
		}
		// Qualified: pkg.Func, pkg.Type conversion, or pkg.Var.
		obj := objOf(u, fn.Sel)
		switch o := obj.(type) {
		case *types.Func:
			ops = append(ops, staticCallOp(u, call, o))
		case *types.TypeName:
			ops = append(ops, conversionOp(u, call)...)
			return ops
		case *types.Var:
			ops = append(ops, op{pos: call.Pos(), kind: opDynamic, desc: "dynamic call (interface method or function value)"})
		}
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType, *ast.StarExpr, *ast.ChanType:
		// Conversion spelled with a type expression: []byte(s) etc.
		ops = append(ops, conversionOp(u, call)...)
		return ops
	case *ast.FuncLit:
		// Immediately-invoked literal: the literal op is reported by the
		// walker; the call adds nothing.
	default:
		if u.Info != nil {
			if tv, ok := u.Info.Types[fun]; ok && tv.IsType() {
				ops = append(ops, conversionOp(u, call)...)
				return ops
			}
		}
	}
	ops = append(ops, boxingOps(u, call)...)
	return ops
}

func isFuncExpr(u *Unit, e ast.Expr) bool {
	if u.Info == nil {
		return false
	}
	tv, ok := u.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

func objOf(u *Unit, id *ast.Ident) types.Object {
	if u.Info == nil {
		return nil
	}
	return u.Info.Uses[id]
}

// staticCallOp builds the call edge for a resolved *types.Func: a
// same-package funcKey when the callee lives in this unit, else the
// (import path, funcKey) pair looked up in the callee's exported facts.
func staticCallOp(u *Unit, call *ast.CallExpr, f *types.Func) op {
	key := typesFuncKey(f)
	if f.Pkg() != nil && u.Pkg != nil && f.Pkg() == u.Pkg {
		return op{pos: call.Pos(), kind: opCall, samePkg: key}
	}
	path := ""
	if f.Pkg() != nil {
		path = f.Pkg().Path()
	}
	return op{pos: call.Pos(), kind: opCall, pkgPath: path, callee: key}
}

// typesFuncKey mirrors funcKey for type-checker objects: "Recv.Method"
// with pointer stars and generic instantiations stripped, else "Func".
func typesFuncKey(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return f.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + f.Name()
	}
	return f.Name()
}

// builtinOp reports allocating builtins.
func builtinOp(call *ast.CallExpr, name string) []op {
	switch name {
	case "make":
		return []op{{pos: call.Pos(), kind: opAlloc, desc: "heap allocation (make)"}}
	case "new":
		return []op{{pos: call.Pos(), kind: opAlloc, desc: "heap allocation (new)"}}
	}
	// append is deliberately not flagged: the hot paths grow their
	// scratch buffers amortized and are steady-state allocation-free —
	// that's what the AllocsPerRun tests pin.
	return nil
}

// conversionOp flags the conversions that copy: string <-> []byte/[]rune
// and integer -> string.
func conversionOp(u *Unit, call *ast.CallExpr) []op {
	if u.Info == nil || len(call.Args) != 1 {
		return nil
	}
	dst, ok := u.Info.Types[call]
	if !ok || dst.Type == nil {
		return nil
	}
	if dst.Value != nil {
		return nil // constant conversion, folded at compile time
	}
	src, ok := u.Info.Types[call.Args[0]]
	if !ok || src.Type == nil {
		return nil
	}
	d, s := dst.Type.Underlying(), src.Type.Underlying()
	alloc := false
	if db, ok := d.(*types.Basic); ok && db.Info()&types.IsString != 0 {
		switch sb := s.(type) {
		case *types.Slice:
			alloc = true
		case *types.Basic:
			alloc = sb.Info()&types.IsInteger != 0
		}
	}
	if ds, ok := d.(*types.Slice); ok {
		if sb, ok := s.(*types.Basic); ok && sb.Info()&types.IsString != 0 {
			_ = ds
			alloc = true
		}
	}
	if !alloc {
		return nil
	}
	return []op{{pos: call.Pos(), kind: opAlloc, desc: "allocating string conversion"}}
}

// pointerShaped reports types the runtime stores directly in an
// interface's data word: pointers, maps, channels, funcs and
// unsafe.Pointer. Boxing those never allocates.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// boxingOps flags arguments converted to interface types at a call: the
// convT path heap-allocates the boxed copy. Passing an interface to an
// interface, the untyped nil, or a pointer-shaped value does not box.
func boxingOps(u *Unit, call *ast.CallExpr) []op {
	if u.Info == nil {
		return nil
	}
	tv, ok := u.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	var ops []op
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through, no boxing
			}
			last, _ := params.At(params.Len() - 1).Type().(*types.Slice)
			if last == nil {
				continue
			}
			pt = last.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := u.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		if pointerShaped(at.Type) {
			continue // stored directly in the iface word, no convT copy
		}
		ops = append(ops, op{pos: arg.Pos(), kind: opAlloc, desc: "interface boxing of argument"})
	}
	return ops
}
