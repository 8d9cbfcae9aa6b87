package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowFile lists, relative to the repository root, the exported
// identifiers that may stay without a non-test caller, one per line:
// its key (`pkg.Name` or `pkg.Type.Name`), then its reason.
const allowFile = "internal/infra/docscheck/unused.txt"

// allowReasonRe accepts the three reasons an entry may stay: a test
// seam, naming the test in another package that needs it; a capability
// of the paper's system inventory (PAPER.md §1, S1–S13) that no real
// path drives yet, naming its ROADMAP item or Deferred entry; or a field
// only bench/ sets, naming ROADMAP item 16, whose benchmark change
// deletes it.
var allowReasonRe = regexp.MustCompile(`^(seam: .*\bTest\w+|S\d+\b.*\bROADMAP (item \d+|Deferred)|bench: .*\bROADMAP item 16\b)`)

// conventional are methods the standard library calls through unnamed
// interfaces (errors.Is, errors.As and errors.Unwrap declare theirs
// inside the function), which no package scope shows the rule.
var conventional = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// unusedAPI reports each exported identifier declared under internal/
// that no non-test Go file of the repository uses, unless unused.txt
// lists it, and each entry of unused.txt that has a user now or names
// nothing. Every non-test package of every module under root is a
// caller (the root module and nested ones such as bench/, whose go.mod
// replaces the root module with ../). A tree without a go.mod at its
// root has no module to check.
func unusedAPI(root string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, nil
	}
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if !l.recv[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range l.info.Selections {
		used[origin(sel.Obj())] = true
	}

	ifaces := l.interfaces()
	internal := l.module + "/internal/"
	exists := map[string]string{} // candidate key -> what would make it stale
	unused := l.writeOnly(internal, exists)
	add := func(key string, obj types.Object) {
		if exists[key] == "" {
			exists[key] = "caller"
		}
		if !used[obj] {
			unused[key] = finding{obj.Pos(), "has no user in non-test Go"}
		}
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, internal) {
			continue
		}
		pkg := l.pkgs[p]
		prefix := strings.TrimPrefix(p, internal) + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(prefix+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			owner := prefix + name + "."
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						add(owner+m.Name(), m)
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !conventional[m.Name()] && !implements(named, m.Name(), ifaces) {
					add(owner+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					// A tagged field is read by reflection (encoding/xml,
					// encoding/json); an embedded one is used through its
					// promoted names.
					if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
						add(owner+f.Name(), f)
					}
				}
			}
		}
	}

	var problems []string
	allowed, err := readAllowList(root)
	if err != nil {
		return nil, err
	}
	for key, reason := range allowed {
		switch {
		case !allowReasonRe.MatchString(reason):
			problems = append(problems, fmt.Sprintf("%s lists %s for %q, which is neither a test seam naming its test, an S-number with its ROADMAP item, nor a bench-only field naming ROADMAP item 16", allowFile, key, reason))
		case exists[key] == "":
			problems = append(problems, fmt.Sprintf("%s lists %s, which names no exported identifier, field or var either rule checks; delete the entry", allowFile, key))
		case unused[key].pos == token.NoPos:
			problems = append(problems, fmt.Sprintf("%s lists %s, which has a non-test %s now; delete the entry", allowFile, key, exists[key]))
		}
	}
	for key, f := range unused {
		if _, ok := allowed[key]; ok {
			continue
		}
		at := l.fset.Position(f.pos)
		rel, err := filepath.Rel(root, at.Filename)
		if err != nil {
			rel = at.Filename
		}
		problems = append(problems, fmt.Sprintf("%s:%d: %s %s; delete it, or list it in %s with its reason", filepath.ToSlash(rel), at.Line, key, f.what, allowFile))
	}
	return problems, nil
}

// finding is an identifier a rule reports: where it is declared, and
// what is wrong with it.
type finding struct {
	pos  token.Pos
	what string
}

// readAllowList returns allowFile's entries, key -> reason. Blank lines
// and lines starting with # are skipped.
func readAllowList(root string) (map[string]string, error) {
	allowed := map[string]string{}
	f, err := os.Open(filepath.Join(root, allowFile))
	if os.IsNotExist(err) {
		return allowed, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		allowed[key] = strings.TrimSpace(reason)
	}
	return allowed, sc.Err()
}

// origin maps an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implements reports whether T or *T implements an interface, among
// ifaces, that declares a method called name.
func implements(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces[name] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// loader type-checks the non-test packages of every module under a root.
// It is the importer of the repository's own packages, so an object is
// the same object in every package that uses it; standard-library
// imports go to the source importer.
type loader struct {
	module string            // the root module's path
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*types.Package
	fset   *token.FileSet
	info   *types.Info
	files  []*ast.File
	recv   map[*ast.Ident]bool // the type names of method receivers
	std    types.Importer
}

func newLoader(root string) (*loader, error) {
	l := &loader{
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
		recv: map[*ast.Ident]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	modules := map[string]string{} // directory -> module path
	goDirs := map[string]bool{}    // directories holding non-test Go
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		switch {
		case d.Name() == "go.mod":
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			mod := modulePath(data)
			if mod == "" {
				return fmt.Errorf("%s names no module", path)
			}
			modules[dir] = mod
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			goDirs[dir] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.module = modules[root]
	for dir := range goDirs {
		modDir := dir
		for modules[modDir] == "" && modDir != root {
			modDir = filepath.Dir(modDir)
		}
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return nil, err
		}
		p := modules[modDir]
		if rel != "." {
			p += "/" + filepath.ToSlash(rel)
		}
		l.dirs[p] = dir
	}
	return l, nil
}

// modulePath returns the path a go.mod's module line declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// Import type-checks a repository package on first use, and hands any
// other path to the standard-library importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	// go/build picks the files a build would compile: no tests, and no
	// file its build constraints or GOOS/GOARCH suffix leave out.
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		bp, err = &build.Package{}, nil // every file is left out here
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		l.files = append(l.files, f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recv[id] = true
					}
					return true
				})
			}
		}
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// interfaces indexes by method name every interface a loaded package
// declares, the standard library's included, every interface literal
// in the repository's code, and error.
func (l *loader) interfaces() map[string][]*types.Interface {
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			ifaces[name] = append(ifaces[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}
	for _, tv := range l.info.Types {
		if _, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			addIface(tv.Type)
		}
	}
	return ifaces
}
