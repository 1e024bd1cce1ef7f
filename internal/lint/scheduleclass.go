package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ScheduleClass guards the kernel memo cache against the silent-poisoning
// bug class: an Oblivious algorithm whose ScheduleClass Config fingerprint
// omits a constructor knob makes two differently-configured values
// indistinguishable to the cache, so the second configuration is served the
// first one's rendered schedules — byte-wrong output with no error.
var ScheduleClass = &Analyzer{
	Name:     "scheduleclass",
	Suppress: "scheduleclass",
	Doc: `ScheduleClass Config must mention every knob Build reads

For every type implementing model.Oblivious (declares both Build and
ObliviousClass), each receiver struct field that Build reads — directly or
through same-type helper methods — must also be mentioned by ObliviousClass
(folded into ConfigFields, or consulted for the class flags). A field read
during schedule generation but absent from the Config fingerprint lets two
distinct configurations share one kernel memo bucket, poisoning the cache
across configs.

The feedback-epoch analogue guards model.EpochStation implementations: every
receiver field mutated by the station's feedback observer (Observe, directly
or through same-type helpers) must be consulted by RenderWord. RenderWord is
the silence projection of the state Observe evolves; a field that feedback
moves but the render ignores shapes a schedule the render cannot follow, so
the kernel would scan words the engine's station does not transmit.`,
	Run: runScheduleClass,
}

// methodIndex maps each named receiver type in the package to its declared
// methods' bodies.
type methodIndex map[*types.Named]map[string]*ast.FuncDecl

func buildMethodIndex(pkg *Package) methodIndex {
	idx := methodIndex{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			named := recvNamedType(pkg.Info, fd)
			if named == nil {
				continue
			}
			methods := idx[named]
			if methods == nil {
				methods = map[string]*ast.FuncDecl{}
				idx[named] = methods
			}
			methods[fd.Name.Name] = fd
		}
	}
	return idx
}

func runScheduleClass(pass *Pass) error {
	pkg := pass.Pkg
	idx := buildMethodIndex(pkg)
	for named, methods := range idx {
		checkObliviousClass(pass, pkg, idx, named, methods)
		checkEpochRender(pass, pkg, idx, named, methods)
	}
	return nil
}

func checkObliviousClass(pass *Pass, pkg *Package, idx methodIndex, named *types.Named, methods map[string]*ast.FuncDecl) {
	build, hasBuild := methods["Build"]
	class, hasClass := methods["ObliviousClass"]
	if !hasBuild || !hasClass {
		return
	}
	buildFields := fieldsRead(pkg, idx, named, build, map[string]bool{})
	classFields := fieldsRead(pkg, idx, named, class, map[string]bool{})
	var missing []string
	for name := range buildFields {
		if !classFields[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(class.Pos(),
		"%s.ObliviousClass never consults field(s) %s read by Build; fold every schedule-shaping knob into ConfigFields or two configs will share one kernel memo bucket (cache poisoning)",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// checkEpochRender enforces the epoch-class invariant on every type shaped
// like a model.EpochStation: the receiver fields written by its feedback
// observer must be a subset of the fields RenderWord reads.
func checkEpochRender(pass *Pass, pkg *Package, idx methodIndex, named *types.Named, methods map[string]*ast.FuncDecl) {
	render, hasRender := methods["RenderWord"]
	observe, hasObserve := methods["Observe"]
	if !hasRender || !hasObserve {
		return
	}
	written := fieldsWritten(pkg, idx, named, observe, map[string]bool{})
	if len(written) == 0 {
		return
	}
	reads := fieldsRead(pkg, idx, named, render, map[string]bool{})
	var missing []string
	for name := range written {
		if !reads[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(render.Pos(),
		"%s.RenderWord never consults field(s) %s mutated by its feedback observer (Observe); the rendered epoch word diverges from the station's schedule when feedback moves state the render ignores",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// assignBase strips index, paren and deref layers off an assignment target,
// so writes through them (s.words[i] = x, *s.p = x) attribute to the field.
func assignBase(expr ast.Expr) ast.Expr {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return expr
		}
	}
}

// fieldsWritten collects the names of named's struct fields assigned inside
// fd's body — assignment statements (including op-assign and append-style
// self-assignment), inc/dec statements, and writes made by calls to other
// methods of the same receiver type (the Observe-delegation pattern). seen
// guards against recursion.
func fieldsWritten(pkg *Package, idx methodIndex, named *types.Named, fd *ast.FuncDecl, seen map[string]bool) map[string]bool {
	if seen[fd.Name.Name] {
		return nil
	}
	seen[fd.Name.Name] = true
	out := map[string]bool{}
	record := func(target ast.Expr) {
		sel, ok := assignBase(target).(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection := pkg.Info.Selections[sel]
		if selection == nil || namedOf(selection.Recv()) != named || selection.Kind() != types.FieldVal {
			return
		}
		out[sel.Sel.Name] = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(st.X)
		case *ast.SelectorExpr:
			selection := pkg.Info.Selections[st]
			if selection == nil || namedOf(selection.Recv()) != named || selection.Kind() != types.MethodVal {
				return true
			}
			if callee, ok := idx[named][st.Sel.Name]; ok {
				for f := range fieldsWritten(pkg, idx, named, callee, seen) {
					out[f] = true
				}
			}
		}
		return true
	})
	return out
}

// fieldsRead collects the names of named's struct fields read inside fd's
// body, following calls to other methods of the same receiver type (the
// capFor-style helper pattern). seen guards against recursion.
func fieldsRead(pkg *Package, idx methodIndex, named *types.Named, fd *ast.FuncDecl, seen map[string]bool) map[string]bool {
	if seen[fd.Name.Name] {
		return nil
	}
	seen[fd.Name.Name] = true
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pkg.Info.Selections[sel]
		if selection == nil || namedOf(selection.Recv()) != named {
			return true
		}
		switch selection.Kind() {
		case types.FieldVal:
			out[sel.Sel.Name] = true
		case types.MethodVal:
			if callee, ok := idx[named][sel.Sel.Name]; ok {
				for f := range fieldsRead(pkg, idx, named, callee, seen) {
					out[f] = true
				}
			}
		}
		return true
	})
	return out
}
