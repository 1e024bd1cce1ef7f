// Command nsmacvet runs the repository's static-analysis suite — the three
// analyzers in nsmac/internal/lint that enforce the determinism, RNG-stream
// and registry-Ref invariants — over a set of package patterns, like a
// purpose-built `go vet`.
//
// Usage:
//
//	go run ./cmd/nsmacvet [-analyzers list] [packages]
//
// With no packages it analyzes ./... from the current directory. It prints
// one line per diagnostic (file:line:col: [analyzer] message) and exits
// non-zero if any survive their suppression comments. Test files are not
// analyzed: the invariants govern shipped code.
//
// An audited violation is silenced with a comment on the offending line or
// the line above it:
//
//	//nsmac:<key>-ok <reason>
//
// where <key> is the analyzer's suppression key ("nondeterminism" for the
// determinism analyzer, the analyzer's name otherwise) and the reason is
// mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"nsmac/internal/lint"
)

func main() {
	analyzers := flag.String("analyzers", "",
		"comma-separated analyzer selection (default: the whole suite)")
	list := flag.Bool("list", false, "print the suite's analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nsmacvet [-analyzers list] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	selected, err := lint.ByName(*analyzers)
	if err != nil {
		fail("%v", err)
	}
	pkgs, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fail("%v", err)
	}
	bad := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, selected)
		if err != nil {
			fail("%v", err)
		}
		for _, d := range diags {
			bad++
			fmt.Printf("%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if bad > 0 {
		fail("%d diagnostic(s)", bad)
	}
}

// firstLine returns the summary line of an analyzer doc.
func firstLine(doc string) string {
	for i := 0; i < len(doc); i++ {
		if doc[i] == '\n' {
			return doc[:i]
		}
	}
	return doc
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nsmacvet: "+format+"\n", args...)
	os.Exit(1)
}
