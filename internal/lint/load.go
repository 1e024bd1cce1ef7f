package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// goList runs `go list -deps -export -json` for the patterns in dir and
// decodes the package stream. -export makes the toolchain populate export
// data for every package in the build cache, which is what lets the
// typechecker resolve imports without compiling dependencies from source.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := []string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export-data files `go list
// -export` reported, one shared instance per Load call.
func exportImporter(fset *token.FileSet, index map[string]listedPackage) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		p, ok := index[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(p.Export)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typecheck parses and typechecks one listed package from source.
func typecheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: imp}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:  lp.ImportPath,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// Load typechecks the non-test sources of every package matching patterns,
// resolved relative to dir (the module root for "./..." patterns). Only the
// packages the patterns name are parsed and returned; their dependencies are
// consumed as export data.
//
// Test files are deliberately out of scope: the analyzers enforce invariants
// of shipped code (tests freely use raw seeds and wall clocks).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	index := make(map[string]listedPackage, len(listed))
	for _, p := range listed {
		index[p.ImportPath] = p
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, index)
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, fmt.Errorf("lint: typechecking %s: %w", lp.ImportPath, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}
