package nsmac

import (
	"bufio"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCommentsCiteExistingDocs fails when a Go comment anywhere in the tree
// names a Markdown file that does not exist, or a heading that the file it
// names lacks. A file name resolves from the commenting file's directory up
// to the repository root; a heading is cited as the file's name (README may
// drop its extension) followed by the heading in double quotes.
func TestCommentsCiteExistingDocs(t *testing.T) {
	docRef := regexp.MustCompile(`[\w./-]+\.md\b`)
	headingRef := regexp.MustCompile(`\b(README|[\w./-]+\.md) "([^"]+)"`)
	headings := map[string]map[string]bool{} // resolved doc path → its headings
	fset := token.NewFileSet()
	cites := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := strings.Join(strings.Fields(cg.Text()), " ")
			pos := fset.Position(cg.Pos())
			for _, name := range docRef.FindAllString(text, -1) {
				if resolveDoc(filepath.Dir(path), name) == "" {
					t.Errorf("%s: comment cites %s, which does not exist", pos, name)
				}
			}
			for _, m := range headingRef.FindAllStringSubmatch(text, -1) {
				cites++
				name, heading := m[1], m[2]
				if name == "README" {
					name = "README.md"
				}
				doc := resolveDoc(filepath.Dir(path), name)
				if doc == "" {
					continue // reported above, or README.md missing
				}
				if headings[doc] == nil {
					headings[doc] = docHeadings(t, doc)
				}
				if !headings[doc][heading] {
					t.Errorf("%s: comment cites heading %q, which %s lacks", pos, heading, doc)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Error("no comment cites a README heading; the citation pattern no longer matches")
	}
}

// resolveDoc finds name in dir or the nearest ancestor directory that has
// it, returning "" if none does.
func resolveDoc(dir, name string) string {
	for {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p
		}
		if dir == "." {
			return ""
		}
		dir = filepath.Dir(dir)
	}
}

// docHeadings returns the Markdown headings of the file at path, outside
// fenced code blocks, without their leading #s.
func docHeadings(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	fenced := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case !fenced && strings.HasPrefix(line, "#"):
			out[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
