package fpcompress

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// leanAllowed lists the code the lean check lets through although no
// non-test file uses it, each with the reason it stays. A package is keyed
// by its path under the module root, a function or variable by that path,
// a dot and its name.
var leanAllowed = map[string]string{
	"internal/faultnet":           "fault-injection network and storage that the root chaos and salvage tests drive",
	"internal/simd.Disable":       "test hook: forces every simd op onto its scalar body",
	"internal/simd.Enable":        "test hook: restores the detected dispatch level after Disable",
	"internal/simd.Enabled":       "test hook: reports whether Disable is in force",
	"internal/wordio.LoadBits":    "scalar reference the simd tests compare their bit unpacking with",
	"internal/wordio.Words64":     "word view the transforms and simt tests build FCM streams with",
	"internal/wordio.Bytes64":     "byte view the transforms and simt tests build inputs with",
	"internal/server.ReadRequest": "frame reader of the fake servers in the root client tests",
}

// leanPkg is one package as its non-test files see it.
type leanPkg struct {
	path    string // import path
	rel     string // path under the module root
	main    bool
	imports map[string]bool
	decls   map[string]bool // exported top-level funcs and vars
}

// TestLean keeps code that only tests use out of the build. It parses every
// non-test .go file of the module and of the modules nested in it (cmd/,
// examples/ and perfbench/ count as users; dot-directories and testdata are
// skipped) and fails on a non-main package that no other package's non-test
// file imports, on an exported top-level function or variable under
// internal/ that no non-test file references besides its declaration, and
// on an allow-list entry that is used again or no longer exists.
func TestLean(t *testing.T) {
	pkgs, refs := leanScan(t, ".")
	var bad []string
	seen := map[string]bool{}
	flag := func(key, what string) {
		if _, ok := leanAllowed[key]; ok {
			seen[key] = true
			return
		}
		bad = append(bad, key+": "+what)
	}
	importers := map[string]int{}
	for _, p := range pkgs {
		for imp := range p.imports {
			if imp != p.path {
				importers[imp]++
			}
		}
	}
	for _, p := range pkgs {
		if !p.main && importers[p.path] == 0 {
			flag(p.rel, "no non-test file of another package imports it")
		}
		if _, ok := leanAllowed[p.rel]; ok || !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for name := range p.decls {
			if !refs[p.path+"."+name] {
				flag(p.rel+"."+name, "exported, and no non-test file references it")
			}
		}
	}
	for key := range leanAllowed {
		if !seen[key] {
			bad = append(bad, key+": allow-listed, but it is used or no longer exists; drop the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// leanScan parses the non-test files under root and returns their packages
// keyed by import path, and the set of "importpath.Name" references they
// make: a selector on an imported package, or a bare identifier naming
// something in the file's own package.
func leanScan(t *testing.T, root string) (map[string]*leanPkg, map[string]bool) {
	t.Helper()
	pkgs := map[string]*leanPkg{}
	refs := map[string]bool{}
	fset := token.NewFileSet()
	modules := map[string]string{} // directory -> module path
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
				modules[path] = leanModulePath(string(mod))
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		importPath := leanImportPath(modules, dir)
		p := pkgs[importPath]
		if p == nil {
			rel := filepath.ToSlash(dir)
			if rel == "." {
				rel = ""
			}
			p = &leanPkg{path: importPath, rel: rel, imports: map[string]bool{}, decls: map[string]bool{}}
			pkgs[importPath] = p
		}
		p.main = f.Name.Name == "main"
		leanFile(f, p, refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, refs
}

// leanFile records f's imports, exported declarations and references.
func leanFile(f *ast.File, p *leanPkg, refs map[string]bool) {
	local := map[string]string{} // import name -> import path
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		p.imports[path] = true
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		local[name] = path
	}
	// Declared names are not references: function and method names, and
	// the names of fields, parameters and results.
	own := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			own[n.Name] = true
		case *ast.Field:
			for _, id := range n.Names {
				own[id] = true
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				p.decls[d.Name.Name] = true
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.IsExported() {
						p.decls[id.Name] = true
						own[id] = true
					}
				}
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := local[x.Name]; ok {
					refs[path+"."+n.Sel.Name] = true
					return false
				}
			}
			// A field or method selector: only its operand can name
			// something of this package.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !own[n] {
				refs[p.path+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// leanImportPath maps a directory to its import path through the innermost
// module that holds it.
func leanImportPath(modules map[string]string, dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if mod, ok := modules[d]; ok {
			rel, _ := filepath.Rel(d, dir)
			if rel == "." {
				return mod
			}
			return mod + "/" + filepath.ToSlash(rel)
		}
		if d == "." || d == string(filepath.Separator) {
			return filepath.ToSlash(dir)
		}
	}
}

// leanModulePath reads the module directive of a go.mod.
func leanModulePath(mod string) string {
	for _, line := range strings.Split(mod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}
