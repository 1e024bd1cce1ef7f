package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DeterministicPackages are the import paths whose output feeds the
// byte-identical determinism guarantee: everything between a trial seed and
// a rendered table. The determinism analyzer enforces its bans only here.
//
// internal/campaign is on the list even though it is service plumbing: its
// merged results must stay byte-identical to a one-process run, so server
// time is allowed only behind the campaign.Clock abstraction, goroutines
// only as the lease keep-alive and the Driver's in-process workers — each
// carrying an audited suppression — and everything else in the package
// must be as deterministic as the sweep layers it feeds.
var DeterministicPackages = map[string]bool{
	"nsmac/internal/sim":      true,
	"nsmac/internal/kernel":   true,
	"nsmac/internal/sweep":    true,
	"nsmac/internal/channel":  true,
	"nsmac/internal/stats":    true,
	"nsmac/internal/bitset":   true,
	"nsmac/internal/model":    true,
	"nsmac/internal/core":     true,
	"nsmac/internal/schedule": true,
	"nsmac/internal/campaign": true,
	// The packages that feed bytes into those: patterns and spoilers,
	// selector families and matrices, the random streams and their
	// arithmetic, the experiment tables, transcripts, shard execution and
	// the public API over all of them.
	"nsmac/internal/adversary":   true,
	"nsmac/internal/selectors":   true,
	"nsmac/internal/matrix":      true,
	"nsmac/internal/rng":         true,
	"nsmac/internal/mathx":       true,
	"nsmac/internal/experiments": true,
	"nsmac/internal/trace":       true,
	"nsmac/internal/dispatch":    true,
	"nsmac":                      true,
	"nsmac/sweep":                true,
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions and
// indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcIs reports whether f is the package-level function pkgPath.name.
func funcIs(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Name() != name || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// methodIs reports whether f is a method named name whose receiver's named
// type is pkgPath.typeName (pointer or value receiver).
func methodIs(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeIs(sig.Recv().Type(), pkgPath, typeName)
}

// namedTypeIs reports whether t (possibly behind pointers) is the named type
// pkgPath.typeName.
func namedTypeIs(t types.Type, pkgPath, typeName string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// namedOf returns the named type behind pointers, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// importPath returns the unquoted path of an import spec.
func importPath(spec *ast.ImportSpec) string {
	path, err := strconv.Unquote(spec.Path.Value)
	if err != nil {
		return ""
	}
	return path
}

// inspectWithStack walks root like ast.Inspect but hands the visitor the
// stack of enclosing nodes (outermost first, excluding n itself).
func inspectWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// enclosingFuncDecl returns the innermost *ast.FuncDecl on the stack, or nil.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// recvNamedType returns the named type of a method declaration's receiver,
// or nil for plain functions.
func recvNamedType(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return namedOf(info.TypeOf(fd.Recv.List[0].Type))
}

// isConstExpr reports whether e typechecks to a compile-time constant
// (literals, named constants, constant arithmetic).
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.Value != nil
}
