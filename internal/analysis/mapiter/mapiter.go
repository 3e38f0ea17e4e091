// Package mapiter implements the minkowski-vet map-iteration-order
// analyzer. Go randomizes map iteration order by design; any range
// over a map whose body produces externally visible, order-sensitive
// output is therefore a nondeterminism bug. In this repository those
// sweeps feed the dispatch journal, CDPI actuation, and telemetry
// series — exactly the artifacts the determinism regression tests
// byte-compare.
//
// A `for … range m` over a map is flagged when its body
//
//   - appends to a slice declared outside the loop (unless that slice
//     is sorted later in the same function — the collect-then-sort
//     idiom),
//   - sends on a channel,
//   - calls into an order-sensitive sink package (CDPI/actuation,
//     telemetry),
//   - prints or writes output: a fmt.Print*/Fprint* call, or a Write*
//     method of a value that implements io.Writer (files, buffers,
//     builders, hashes), or
//   - returns a value derived from the range key or value: the
//     find-first shape, where which entry wins depends on iteration
//     order.
//
// Counters, max/min folds, deletes from the ranged map, returns of
// values that do not depend on the entry (`return true`, the
// any-match shape), and other commutative bodies are not flagged. A site that is genuinely
// order-insensitive but trips the check can carry a justification:
//
//	//minkowski:unordered-ok <why this is order-insensitive>
//
// on, or on the line above, the range statement. The justification
// text is mandatory.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"minkowski/internal/analysis/vet"
)

// Analyzer is the map-iteration-order checker.
var Analyzer = &vet.Analyzer{
	Name: "mapiter",
	Doc:  "flag map iteration whose body has order-sensitive effects without sorting",
	Run:  run,
}

// SinkPackages are import paths whose calls are order-sensitive
// effects: dispatching to them from inside a map sweep bakes map
// order into the system's behavior. Tests may append to this list.
var SinkPackages = []string{
	"minkowski/internal/cdpi",
	"minkowski/internal/telemetry",
}

func run(pass *vet.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkFunc(pass *vet.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := pass.TypesInfo.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
			return true
		}
		if d, ok := pass.DirectiveAt(rng.Pos(), "unordered-ok"); ok {
			if d.Justification == "" {
				pass.Reportf(rng.Pos(), "//minkowski:unordered-ok requires a justification explaining why iteration order cannot matter here")
			}
			return true
		}
		for _, reason := range OrderSensitiveEffects(pass, fn.Body, rng) {
			pass.Reportf(rng.Pos(), "map iteration order is random but the loop body %s; sort the keys first or annotate //minkowski:unordered-ok <why>", reason)
		}
		return true
	})
}

// OrderSensitiveEffects scans a map-range body for effects whose
// outcome depends on iteration order: appends to slices declared
// outside the loop (unless sorted later within enclosing), channel
// sends, and calls into SinkPackages. enclosing is the body of the
// function (or literal) containing rng, used to spot the
// collect-then-sort idiom. Exported for reuse: the dettaint analyzer
// applies the same judgment to map ranges reached from hotpath roots
// in other packages.
func OrderSensitiveEffects(pass *vet.Pass, enclosing ast.Node, rng *ast.RangeStmt) []string {
	var reasons []string
	seen := map[string]bool{}
	add := func(r string) {
		if !seen[r] {
			seen[r] = true
			reasons = append(reasons, r)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			add("sends on a channel")
		case *ast.CallExpr:
			callee := calleeFunc(pass, n)
			if callee != nil && callee.Pkg() != nil && isSink(callee.Pkg().Path()) {
				add("calls into order-sensitive package " + callee.Pkg().Path())
			}
			if what, ok := writesOutput(callee); ok {
				add("writes output (" + what + ")")
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isAppendCall(pass, rhs) || i >= len(n.Lhs) {
					continue
				}
				obj := assignedObject(pass, n.Lhs[i])
				if obj == nil {
					continue
				}
				// Appends to loop-local slices only reorder within one
				// iteration; appends to outer slices bake in map order
				// unless the slice is sorted afterwards.
				if rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
					continue
				}
				if sortedAfter(pass, enclosing, rng, obj) {
					continue
				}
				add("appends to " + obj.Name() + " (declared outside the loop, never sorted)")
			}
		}
		return true
	})
	if findFirst(pass, rng) {
		add("returns a value derived from the map key or value (which entry is found first depends on iteration order)")
	}
	return reasons
}

// findFirst reports whether a return statement in rng's body (not in
// a nested function literal) returns a value derived from the range
// key or value. Derivation follows assignments and nested ranges in
// source order: a variable assigned from the key or value, or ranged
// out of it, is derived too.
func findFirst(pass *vet.Pass, rng *ast.RangeStmt) bool {
	derived := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if obj := identObject(pass, e); obj != nil {
			derived[obj] = true
		}
	}
	if len(derived) == 0 {
		return false
	}
	uses := func(e ast.Expr) bool {
		for obj := range derived {
			if usesObject(pass, e, obj) {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if uses(rhs) {
					for _, lhs := range n.Lhs {
						if obj := identObject(pass, lhs); obj != nil {
							derived[obj] = true
						}
					}
					break
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if uses(v) {
					for _, name := range n.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							derived[obj] = true
						}
					}
					break
				}
			}
		case *ast.RangeStmt:
			if uses(n.X) {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if obj := identObject(pass, e); obj != nil {
						derived[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if uses(res) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// identObject returns the variable a plain identifier defines or
// refers to; nil for anything else, including the blank identifier.
func identObject(pass *vet.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// printFuncs are the fmt functions whose effect is output.
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// ioWriter is io.Writer, built here so the check does not depend on
// the analyzed package importing io.
var ioWriter = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	write := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(types.NewParam(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewParam(token.NoPos, nil, "err", errType)),
		false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", write)}, nil).Complete()
}()

// writesOutput reports whether a call to callee emits output whose
// order is the call order: a fmt print function, or a Write* method
// (Write, WriteString, WriteByte, ...) of a type that implements
// io.Writer. It returns a short name of the call for the diagnostic.
func writesOutput(callee *types.Func) (string, bool) {
	if callee == nil {
		return "", false
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" && printFuncs[callee.Name()] {
		return "fmt." + callee.Name(), true
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !strings.HasPrefix(callee.Name(), "Write") {
		return "", false
	}
	recv := sig.Recv().Type()
	if types.Implements(recv, ioWriter) || types.Implements(types.NewPointer(recv), ioWriter) {
		return "io.Writer method " + callee.Name(), true
	}
	return "", false
}

func isSink(pkgPath string) bool {
	for _, s := range SinkPackages {
		if pkgPath == s {
			return true
		}
	}
	return false
}

func isAppendCall(pass *vet.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func assignedObject(pass *vet.Pass, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Defs[lhs]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[lhs]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[lhs.Sel]
	}
	return nil
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call after the range statement, anywhere in the enclosing function —
// the collect-then-sort idiom that makes a map sweep deterministic.
func sortedAfter(pass *vet.Pass, enclosing ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if usesObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func usesObject(pass *vet.Pass, e ast.Expr, obj types.Object) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}

func calleeFunc(pass *vet.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}
