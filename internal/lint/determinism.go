package lint

import (
	"go/ast"
	"go/types"
)

// Determinism forbids the nondeterminism sources that would break the
// byte-identical-output guarantee inside the deterministic packages: wall
// clocks, global math/rand, goroutine spawns outside the sanctioned
// sweep.Grid worker pool, and map iteration that feeds output or
// order-sensitive aggregation.
var Determinism = &Analyzer{
	Name:     "determinism",
	Suppress: "nondeterminism",
	Doc: `forbid nondeterminism sources in deterministic packages

In the packages between a trial seed and a rendered table (internal/sim,
kernel, sweep, channel, stats, bitset, model, core, schedule — plus
internal/campaign, whose merged output must stay byte-identical to a
one-process run) this analyzer reports wall-clock reads (time.Now,
time.Since, time.Until), any use of math/rand or math/rand/v2, goroutine
spawns outside the sweep.Grid worker pool, and range-over-map loops whose
bodies append, write output, send on a channel, or accumulate floats/strings
(map order would leak into results). Audited sites carry
//nsmac:nondeterminism-ok <reason>; in internal/campaign the only sanctioned
wall-clock read is campaign.Clock's system implementation, and the only
sanctioned goroutines are the worker's lease keep-alive and the Driver's
in-process workers.`,
	Run: runDeterminism,
}

// wallClockFuncs are the time package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(pass *Pass) error {
	pkg := pass.Pkg
	if !DeterministicPackages[pkg.Path] {
		return nil
	}
	for _, file := range pkg.Files {
		for _, spec := range file.Imports {
			switch importPath(spec) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(spec.Pos(),
					"deterministic package imports %s; draw from nsmac/internal/rng derived streams instead", importPath(spec))
			}
		}
		inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if f := calleeFunc(pkg.Info, n); f != nil && f.Pkg() != nil &&
					f.Pkg().Path() == "time" && wallClockFuncs[f.Name()] {
					pass.Reportf(n.Pos(),
						"wall-clock read time.%s in deterministic package %s; timing belongs in cmd/ layers, on stderr", f.Name(), pkg.Path)
				}
			case *ast.GoStmt:
				if !sanctionedGoroutine(pkg, stack) {
					pass.Reportf(n.Pos(),
						"goroutine spawn outside the sanctioned sweep.Grid worker pool; fan-out must stay in Grid so per-(cell,trial) ordering is preserved")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// sanctionedGoroutine reports whether the enclosing function is part of the
// one legitimate fan-out site: a method of sweep.Grid (the worker pool that
// writes every result into its trial-indexed slot).
func sanctionedGoroutine(pkg *Package, stack []ast.Node) bool {
	if pkg.Path != "nsmac/internal/sweep" {
		return false
	}
	recv := recvNamedType(pkg.Info, enclosingFuncDecl(stack))
	return recv != nil && recv.Obj().Name() == "Grid" && recv.Obj().Pkg() == pkg.Types
}

// checkMapRange reports a range over a map whose body performs an
// order-sensitive operation: appending, writing output, sending on a
// channel, or non-commutative accumulation (floats, strings).
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sink := outputSink(info, n); sink != "" {
				pass.Reportf(rng.Pos(),
					"map iteration feeds %s; map order is nondeterministic — collect and sort the keys first", sink)
				return false
			}
		case *ast.SendStmt:
			pass.Reportf(rng.Pos(),
				"map iteration sends on a channel; map order is nondeterministic — collect and sort the keys first")
			return false
		case *ast.AssignStmt:
			if sink := orderSensitiveAccumulation(info, n); sink != "" {
				pass.Reportf(rng.Pos(),
					"map iteration accumulates %s; map order is nondeterministic — collect and sort the keys first", sink)
				return false
			}
		}
		return true
	})
}

// outputSink classifies a call inside a map-range body as an ordered sink:
// append (slice order), fmt printing, or io/builder Write methods.
func outputSink(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			return "append"
		}
	}
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		switch f.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + f.Name()
		}
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		switch f.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "a " + f.Name() + " method"
		}
	}
	return ""
}

// orderSensitiveAccumulation classifies a compound assignment inside a
// map-range body whose result depends on iteration order: float arithmetic
// (non-associative) and string concatenation.
func orderSensitiveAccumulation(info *types.Info, assign *ast.AssignStmt) string {
	switch assign.Tok.String() {
	case "+=", "-=", "*=", "/=":
	default:
		return ""
	}
	if len(assign.Lhs) != 1 {
		return ""
	}
	t := info.TypeOf(assign.Lhs[0])
	if t == nil {
		return ""
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch {
	case basic.Info()&types.IsFloat != 0:
		return "a float"
	case basic.Info()&types.IsString != 0 && assign.Tok.String() == "+=":
		return "a string"
	}
	return ""
}
