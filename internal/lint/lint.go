// Package lint is the repository's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the three analyzers that
// enforce the invariants every determinism guarantee in this tree rests on —
// no wall clocks or global RNG in deterministic packages, derived RNG
// streams only, and canonical registry Refs.
//
// The framework is stdlib-only (go/ast, go/types, go list) because the
// toolchain image carries no module cache; the API mirrors go/analysis
// closely enough that a future migration is mechanical.
//
// # Suppression comments
//
// An audited violation is silenced with a line comment on the offending line
// or the line directly above it:
//
//	//nsmac:<key>-ok <reason>
//
// where <key> is the analyzer's suppression key (the determinism analyzer
// uses "nondeterminism"; every other analyzer uses its own name) and
// <reason> is mandatory — a bare suppression does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a typechecked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -analyzers flags.
	Name string
	// Doc is the one-paragraph description printed by `nsmacvet -help`.
	Doc string
	// Suppress is the suppression-comment key: a diagnostic on a line
	// carrying (or directly below) `//nsmac:<Suppress>-ok <reason>` is
	// dropped.
	Suppress string
	// Run reports the analyzer's diagnostics for one package via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Package is one typechecked package, the unit every analyzer runs over.
type Package struct {
	// Path is the package's import path ("nsmac/internal/sim").
	Path string
	// Fset positions every file and diagnostic.
	Fset *token.FileSet
	// Files are the package's parsed non-test sources, comments included.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info carries the typechecker's Uses/Defs/Types/Selections maps.
	Info *types.Info
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg   *Package
	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer names the check that produced the diagnostic.
	Analyzer string
	// Pos locates the violation.
	Pos token.Pos
	// Message states it.
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression is one parsed //nsmac:<key>-ok comment.
type suppression struct {
	key    string
	reason string
}

// suppressionIndex maps file line numbers to the suppressions declared on
// them, for one package.
type suppressionIndex map[string]map[int]suppression

const suppressPrefix = "//nsmac:"

// parseSuppressions indexes every //nsmac:<key>-ok comment in the package by
// file and line.
func parseSuppressions(pkg *Package) suppressionIndex {
	idx := suppressionIndex{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, suppressPrefix) {
					continue
				}
				body := strings.TrimPrefix(text, suppressPrefix)
				keyAndReason := strings.SplitN(body, " ", 2)
				key, ok := strings.CutSuffix(keyAndReason[0], "-ok")
				if !ok {
					continue
				}
				reason := ""
				if len(keyAndReason) == 2 {
					reason = strings.TrimSpace(keyAndReason[1])
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int]suppression{}
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = suppression{key: key, reason: reason}
			}
		}
	}
	return idx
}

// filter applies the suppression index to one diagnostic, returning the
// (possibly annotated) diagnostic and whether it survives.
func (idx suppressionIndex) filter(pkg *Package, a *Analyzer, d Diagnostic) (Diagnostic, bool) {
	pos := pkg.Fset.Position(d.Pos)
	byLine := idx[pos.Filename]
	if byLine == nil {
		return d, true
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		s, ok := byLine[line]
		if !ok || s.key != a.Suppress {
			continue
		}
		if s.reason == "" {
			d.Message += " (the //nsmac:" + a.Suppress + "-ok suppression needs a reason)"
			return d, true
		}
		return d, false
	}
	return d, true
}

// RunAnalyzers runs the analyzers over one package and returns the surviving
// diagnostics in file/position order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	suppress := parseSuppressions(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			if kept, ok := suppress.filter(pkg, a, d); ok {
				out = append(out, kept)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns the full analyzer suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		RNGStream,
		RegistryRef,
	}
}

// ByName resolves a comma-separated analyzer selection against the suite.
func ByName(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
