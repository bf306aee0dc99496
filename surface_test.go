package predrm_test

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

// surfaceAllowlist names the exported functions and methods under internal/
// that no non-test file of the module references, keyed package.Name or
// package.Type.Name, each with the reason it stays in production code. Keep
// it short: a helper only its own package's tests call belongs in a
// _test.go file of that package.
var surfaceAllowlist = map[string]string{
	"sched.SimulateEDF":         "the EDF feasibility tests' reference simulation and a hot-set benchmark",
	"sched.EntryList.Invariant": "core and exact tests check the solvers' incremental lists against it",
	"sched.Problem.WithoutPred": "sched, milpform and experiments tests build the no-prediction problem with it",
}

// TestExportedSurfaceIsUsed fails on any exported function or method
// declared in a non-test file under internal/ whose name no non-test file
// of the module references (a call, a method value or an interface
// method). Such a name is a test-only helper that belongs in a _test.go
// file, or dead code. Matching is by name, so a name one package uses
// keeps every declaration of it; the check is a floor, not a proof.
func TestExportedSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module (bench/).
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
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
		internal := strings.Contains(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if internal && fn.Name.IsExported() {
				key := f.Name.Name + "."
				if fn.Recv != nil {
					key += recvType(fn.Recv.List[0].Type) + "."
				}
				key += fn.Name.Name
				decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	stale := map[string]bool{}
	for key := range surfaceAllowlist {
		stale[key] = true
	}
	for _, d := range decls {
		if _, ok := surfaceAllowlist[d.key]; ok {
			stale[d.key] = used[d.name]
			continue
		}
		if !used[d.name] {
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported name(s) under internal/ that only tests reference; move each into its package's _test.go files or delete it:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
	for key, bad := range stale {
		if bad {
			t.Errorf("allowlisted %s is not declared, or production code references it; drop it from the allowlist", key)
		}
	}
}

// recvType names a method receiver's type without pointer or type
// parameters.
func recvType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
