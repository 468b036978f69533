// Command doccheck verifies godoc hygiene for the packages named on the
// command line: every exported type, function, and method must carry a doc
// comment that begins with the identifier's name, and every exported
// const/var must be documented on the declaration or its group.
//
// Usage:
//
//	go run ./scripts/doccheck <package dir> [<package dir>...]
//
// Exit status is nonzero when any violation is found; each violation is
// printed as file:line: message. scripts/lint.sh runs it over the packages
// whose documentation the project guarantees, and lists them.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> [<package dir>...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		n, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented or misdocumented exported identifiers\n", bad)
		os.Exit(1)
	}
}

// checkDir parses every non-test .go file in dir and reports violations.
func checkDir(dir string) (int, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return bad, err
		}
		bad += checkFile(fset, f)
	}
	return bad, nil
}

// checkFile walks one file's top-level declarations.
func checkFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	complain := func(pos token.Pos, format string, args ...any) {
		fmt.Printf("%s: %s\n", fset.Position(pos), fmt.Sprintf(format, args...))
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			checkName(d.Doc, d.Name.Name, d.Pos(), complain)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					checkName(doc, ts.Name.Name, ts.Pos(), complain)
				}
			case token.CONST, token.VAR:
				// A group doc comment covers every spec; otherwise each
				// exported spec needs its own.
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					exported := false
					for _, n := range vs.Names {
						if n.IsExported() {
							exported = true
						}
					}
					if !exported {
						continue
					}
					if d.Doc == nil && vs.Doc == nil && vs.Comment == nil {
						complain(vs.Pos(), "exported %s %s is undocumented",
							d.Tok, vs.Names[0].Name)
					}
				}
			}
		}
	}
	return bad
}

// checkName enforces the "comment starts with the identifier" convention.
func checkName(doc *ast.CommentGroup, name string, pos token.Pos, complain func(token.Pos, string, ...any)) {
	if doc == nil {
		complain(pos, "exported %s is undocumented", name)
		return
	}
	text := strings.TrimSpace(doc.Text())
	// Allow the "A Foo ..." / "An Op ..." / "The Bar ..." article forms
	// alongside the canonical "Foo ..." opening.
	for _, prefix := range []string{name, "A " + name, "An " + name, "The " + name} {
		if strings.HasPrefix(text, prefix+" ") || text == prefix {
			return
		}
	}
	complain(pos, "doc comment for %s should start with %q", name, name)
}
