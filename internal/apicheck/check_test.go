// Package apicheck holds the test that every function under internal/ has
// a production caller (DESIGN.md §2). It type-checks the module's non-test
// packages with go/types and fails on an exported function or method under
// internal/ that only tests reference, on an unexported one that nothing
// references, and on a line of allowlist.txt that names neither.
package apicheck

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"sort"
	"strings"
	"testing"
)

// pkg is one type-checked package of the module, test files left out.
type pkg struct {
	files []*ast.File
	names []string // module-relative file names, parallel to files
	types *types.Package
	info  *types.Info
}

// checkPackage type-checks the files of the package at path, recording
// what check reads.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, names []string, imp types.Importer) (*pkg, error) {
	p := &pkg{files: files, names: names, info: &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}}
	var err error
	p.types, err = (&types.Config{Importer: imp}).Check(path, fset, files, p.info)
	return p, err
}

// allowEntry is one allowlist line: a package path, a module-relative
// file name, a function, a type (all its methods) or a method, written as
// an offender is named (path.Func, path.Type.Method).
type allowEntry struct {
	name string
	line int
}

// check returns one line per function under internalPrefix that is
// exported and unreferenced, or unexported (anywhere) and unreferenced,
// unless an allowlist entry names it, then one line per entry that names
// no offender.
func check(fset *token.FileSet, pkgs []*pkg, internalPrefix string, allow []allowEntry) []string {
	type decl struct {
		fn         *types.Func
		name, file string
		line       int
		pos, end   token.Pos
	}
	var decls []*decl
	declOf := map[*types.Func]*decl{}
	for _, p := range pkgs {
		for i, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" && fd.Recv == nil ||
					fd.Name.Name == "main" && fd.Recv == nil && p.types.Name() == "main" {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				dd := &decl{fn: fn, name: funcName(fn), file: p.names[i],
					line: fset.Position(fd.Pos()).Line, pos: fd.Pos(), end: fd.End()}
				decls = append(decls, dd)
				declOf[fn] = dd
			}
		}
	}

	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := declOf[fn]; d != nil && d.pos <= id.Pos() && id.Pos() < d.end {
				continue // a recursive call is not a caller
			}
			used[fn] = true
		}
	}
	markSatisfied(pkgs, used)

	var out []string
	hit := make([]bool, len(allow))
	sort.SliceStable(decls, func(i, j int) bool {
		return decls[i].file < decls[j].file || decls[i].file == decls[j].file && decls[i].line < decls[j].line
	})
	for _, d := range decls {
		if used[d.fn] {
			continue
		}
		var why string
		switch {
		case !d.fn.Exported():
			why = "is referenced by nothing"
		case strings.HasPrefix(d.fn.Pkg().Path()+"/", internalPrefix):
			why = "has no caller outside the tests"
		default:
			continue
		}
		allowed := false
		for i, a := range allow {
			if d.name == a.name || strings.HasPrefix(d.name, a.name+".") || d.file == a.name {
				hit[i], allowed = true, true
			}
		}
		if !allowed {
			out = append(out, fmt.Sprintf("%s:%d: %s %s", d.file, d.line, d.name, why))
		}
	}
	for i, a := range allow {
		if !hit[i] {
			out = append(out, fmt.Sprintf("allowlist.txt:%d: %s names no function without a caller; delete the line", a.line, a.name))
		}
	}
	return out
}

// markSatisfied marks as used every method through which a type of pkgs
// satisfies an interface: one written in pkgs (anonymous ones in type
// assertions included) or declared at package level by anything they
// import.
func markSatisfied(pkgs []*pkg, used map[*types.Func]bool) {
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, n := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			addScope(imp)
		}
	}
	var named []*types.Named
	for _, p := range pkgs {
		addScope(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, n := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(n).(*types.TypeName); ok {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 {
					named = append(named, nt)
				}
			}
		}
		for _, inst := range p.info.Instances {
			if nt, ok := inst.Type.(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		ptr := types.NewPointer(nt)
		ms := types.NewMethodSet(ptr)
		if ms.Len() == 0 {
			continue
		}
		has := map[string]bool{}
		for i := 0; i < ms.Len(); i++ {
			has[ms.At(i).Obj().Name()] = true
		}
	iface:
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if !has[it.Method(i).Name()] {
					continue iface
				}
			}
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}
}

// funcName names a function path.Func and a method path.Type.Method.
func funcName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if nt, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + nt.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// parseAllowlist reads "name reason..." lines; blank lines and lines
// starting with # are skipped, and every entry must give a reason.
func parseAllowlist(r io.Reader) ([]allowEntry, error) {
	var out []allowEntry
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("allowlist.txt:%d: %s gives no reason", n, name)
		}
		out = append(out, allowEntry{name: name, line: n})
	}
	return out, sc.Err()
}

// listedPackage is the part of `go list -json` output that load reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// load type-checks the non-test packages of the module rooted at root
// from source, importing the standard library from its export data.
// `go list -deps` prints packages in dependency order, so each module
// package is checked after everything it imports.
func load(root string) (*token.FileSet, []*pkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	mod := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := mod[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	var pkgs []*pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, err
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		var names []string
		for _, name := range lp.GoFiles {
			full := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, full, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			rel, _ := filepath.Rel(root, full)
			files, names = append(files, f), append(names, filepath.ToSlash(rel))
		}
		p, err := checkPackage(fset, lp.ImportPath, files, names, imp)
		if err != nil {
			return nil, nil, err
		}
		mod[lp.ImportPath] = p.types
		pkgs = append(pkgs, p)
	}
	return fset, pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func TestInternalAPIHasProductionCallers(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow, err := parseAllowlist(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range check(fset, pkgs, "dolxml/internal/", allow) {
		t.Error(line)
	}
}
