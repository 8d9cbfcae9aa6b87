package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyConfigReadersImportJSON makes DESIGN.md §7 executable: no
// JSON crosses between processes, so no non-test Go under cmd/ or
// internal/ imports encoding/json, except the fault plan's and the
// tenant table's config-file readers.
func TestOnlyConfigReadersImportJSON(t *testing.T) {
	allowed := map[string]bool{"internal/fault": true, "internal/tenant": true}
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	files := 0
	for _, top := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/json"` && !allowed[filepath.ToSlash(rel)] {
					t.Errorf("%s imports encoding/json", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 100 {
		t.Fatalf("parsed %d files under cmd/ and internal/; the walk missed the tree", files)
	}
}
