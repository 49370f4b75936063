package apicheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose citations must name live code.
// benchmark/README.md is left out: it describes the frozen harness.
var checkedDocs = []string{
	"README.md",
	"securexml/README.md",
	"examples/README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// checkedScripts hold `go test` command lines and test names in comments,
// but no markdown.
var checkedScripts = []string{".github/workflows/ci.yml", ".github/workflows/mutants.yml"}

// decls is what one package declares: its package-level names and the
// members of its types, test files included.
type decls struct {
	top   map[string]bool
	types map[string]*typeDecl
}

// typeDecl holds a type's methods, fields and interface methods, and the
// names of the types it embeds, whose members it promotes.
type typeDecl struct {
	members  map[string]bool
	embedded []string
}

func newDecls() *decls { return &decls{top: map[string]bool{}, types: map[string]*typeDecl{}} }

func (d *decls) typ(name string) *typeDecl {
	td := d.types[name]
	if td == nil {
		td = &typeDecl{members: map[string]bool{}}
		d.types[name] = td
	}
	return td
}

// add records the declarations of one parsed file.
func (d *decls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[decl.Name.Name] = true
			} else if len(decl.Recv.List) == 1 {
				if recv := baseTypeName(decl.Recv.List[0].Type); recv != "" {
					d.typ(recv).members[decl.Name.Name] = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[n.Name] = true
					}
				case *ast.TypeSpec:
					d.top[spec.Name.Name] = true
					td := d.typ(spec.Name.Name)
					var fields []*ast.Field
					switch t := spec.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							td.members[n.Name] = true
						}
						if len(fld.Names) == 0 {
							if name := baseTypeName(fld.Type); name != "" {
								td.embedded = append(td.embedded, name)
							}
						}
					}
				}
			}
		}
	}
}

// baseTypeName is the name of a receiver or embedded type: T for T, *T,
// T[P], pkg.T and *pkg.T.
func baseTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// tree is what the doc check resolves citations against.
type tree struct {
	fs      fs.FS
	lines   map[string]int         // module-relative .go file → its line count
	byBase  map[string][]string    // base name of a .go file → its paths
	pkgs    map[string][]*decls    // package name → one decls per directory
	types   map[string][]*typeDecl // type name → every module type of that name
	tests   map[string][]string    // directory → the Test, Benchmark, Fuzz and Example functions of its _test.go files
	imports map[string]string      // name a module file imports a standard package under → its path
	std     map[string]*decls      // standard packages loaded so far, by path
	metrics map[string]bool        // the metric names BENCHMARK.json declares
	// goCites holds, per Go file, the lines that cite a DESIGN.md
	// section or a ROADMAP item, for the same rules the docs follow.
	goCites []citation
}

type citation struct {
	file string
	line int
	text string
}

var testFuncRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)([A-Z_]|$)`)

// loadTree reads every Go file of the module in fsys. Directories whose
// names start with "." or "_", and testdata, are skipped, as the go tool
// skips them.
func loadTree(fsys fs.FS) (*tree, error) {
	t := &tree{
		fs: fsys, lines: map[string]int{}, byBase: map[string][]string{},
		pkgs: map[string][]*decls{}, types: map[string][]*typeDecl{},
		tests: map[string][]string{}, imports: map[string]string{}, std: map[string]*decls{},
		metrics: map[string]bool{},
	}
	fset := token.NewFileSet()
	byDir := map[string]*decls{}
	err := fs.WalkDir(fsys, ".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") || e.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		t.lines[p] = bytes.Count(src, []byte("\n"))
		if len(src) > 0 && src[len(src)-1] != '\n' {
			t.lines[p]++
		}
		t.byBase[path.Base(p)] = append(t.byBase[path.Base(p)], p)
		for i, line := range strings.Split(string(src), "\n") {
			if designCiteRE.MatchString(line) || roadmapItemRE.MatchString(line) {
				t.goCites = append(t.goCites, citation{p, i + 1, line})
			}
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		d := byDir[dir]
		if d == nil {
			d = newDecls()
			byDir[dir] = d
			name := strings.TrimSuffix(f.Name.Name, "_test")
			t.pkgs[name] = append(t.pkgs[name], d)
		}
		d.add(f)
		if strings.HasSuffix(p, "_test.go") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testFuncRE.MatchString(fd.Name.Name) {
					t.tests[dir] = append(t.tests[dir], fd.Name.Name)
				}
			}
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(ip, "/"); strings.Contains(first, ".") || first == "dolxml" {
				continue
			}
			name := path.Base(ip)
			if imp.Name != nil && imp.Name.Name != "_" && imp.Name.Name != "." {
				name = imp.Name.Name
			}
			t.imports[name] = ip
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range byDir {
		for name, td := range d.types {
			t.types[name] = append(t.types[name], td)
		}
	}
	if src, err := fs.ReadFile(fsys, "BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct{ Name string } `json:"end_to_end"`
			PerLayer []struct{ Name string } `json:"per_layer"`
		}
		if err := json.Unmarshal(src, &spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %v", err)
		}
		for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
			t.metrics[m.Name] = true
		}
	}
	return t, nil
}

// stdDecls parses the standard package at importPath (its files for this
// platform, tests left out).
func (t *tree) stdDecls(importPath string) *decls {
	if d, ok := t.std[importPath]; ok {
		return d
	}
	var d *decls
	if bp, err := build.Import(importPath, "", 0); err == nil && bp.Goroot {
		d = newDecls()
		fset := token.NewFileSet()
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err == nil {
				d.add(f)
			}
		}
	}
	t.std[importPath] = d
	return d
}

// hasMember reports whether a type of one of tds, or a type it embeds
// (looked up by name in lookup), declares member.
func hasMember(tds []*typeDecl, member string, lookup func(string) []*typeDecl) bool {
	seen := map[*typeDecl]bool{}
	for len(tds) > 0 {
		td := tds[0]
		tds = tds[1:]
		if seen[td] {
			continue
		}
		seen[td] = true
		if td.members[member] {
			return true
		}
		for _, e := range td.embedded {
			tds = append(tds, lookup(e)...)
		}
	}
	return false
}

// fileExts are the last elements of a dotted name that make it a file
// name, not a Go selector.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "yml": true, "txt": true, "db": true}

// resolve checks one dotted name from a backticked span: pkg.Name,
// pkg.Type.Member, Type.Member or a metric name BENCHMARK.json declares.
// It returns "" when the name resolves, or why it does not. A name whose
// qualifier is no package and no type, and whose next element is not
// exported, is taken for something other than Go (a file name, an
// abbreviation) and passes.
func (t *tree) resolve(name string) string {
	if t.metrics[name] {
		return ""
	}
	parts := strings.Split(name, ".")
	if fileExts[parts[len(parts)-1]] {
		return ""
	}
	q, rest := parts[0], parts[1:]
	if ds := t.pkgs[q]; len(ds) > 0 {
		return resolveIn(ds, rest, func(n string) []*typeDecl { return t.types[n] })
	}
	if tds := t.types[q]; len(tds) > 0 {
		if hasMember(tds, rest[0], func(n string) []*typeDecl { return t.types[n] }) {
			return ""
		}
		return fmt.Sprintf("type %s has no member %s", q, rest[0])
	}
	if ip, ok := t.imports[q]; ok {
		if d := t.stdDecls(ip); d != nil {
			return resolveIn([]*decls{d}, rest, func(n string) []*typeDecl {
				if td := d.types[n]; td != nil {
					return []*typeDecl{td}
				}
				return nil
			})
		}
	}
	if ast.IsExported(rest[0]) {
		return fmt.Sprintf("%s is no package and no type: name the type", q)
	}
	return ""
}

// resolveIn resolves Name[.Member] in the packages ds.
func resolveIn(ds []*decls, rest []string, lookup func(string) []*typeDecl) string {
	for _, d := range ds {
		if !d.top[rest[0]] {
			continue
		}
		if len(rest) == 1 {
			return ""
		}
		if td := d.types[rest[0]]; td != nil && hasMember([]*typeDecl{td}, rest[1], lookup) {
			return ""
		}
	}
	for _, d := range ds {
		if d.top[rest[0]] {
			return fmt.Sprintf("%s has no member %s", rest[0], rest[1])
		}
	}
	return "names no declaration"
}

var (
	// dottedRE is a dotted Go name; the character before it must not make
	// it part of a path, a flag or a longer word.
	dottedRE      = regexp.MustCompile(`(^|[^\w./\-$])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
	testNameRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)(?:[A-Z_]\w*)?\b`)
	fileLineRE    = regexp.MustCompile(`([\w./-]*\w\.go):(\d+)(?:[–-](\d+))?`)
	designCiteRE  = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+|")(?:[–-]§?(\d+))?`)
	roadmapItemRE = regexp.MustCompile(`ROADMAP(?:\.md)?(?:'s)?\s+items?\s+\d`)
	headingRE     = regexp.MustCompile(`^## (\d+)\. `)
	goTestRE      = regexp.MustCompile(`\bgo test\b`)
)

// designSections returns the numbers of DESIGN.md's "## N. Title"
// headings.
func (t *tree) designSections() map[string]bool {
	src, _ := fs.ReadFile(t.fs, "DESIGN.md")
	out := map[string]bool{}
	for _, line := range strings.Split(string(src), "\n") {
		if m := headingRE.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	return out
}

// checkCites applies the rules every checked file and Go comment follows,
// to text whose first line is line first of file name: a DESIGN.md §N
// names a numbered section, and nothing cites a ROADMAP item, whose
// numbers change at every re-anchor. A citation may run across a line
// break.
func checkCites(name string, first int, text string, sections map[string]bool) []string {
	var out []string
	where := func(at int) string { return fmt.Sprintf("%s:%d", name, first+strings.Count(text[:at], "\n")) }
	for _, m := range designCiteRE.FindAllStringSubmatchIndex(text, -1) {
		for k := 2; k < len(m); k += 2 {
			if m[k] < 0 {
				continue
			}
			if n := text[m[k]:m[k+1]]; !sections[n] {
				out = append(out, fmt.Sprintf("%s: DESIGN.md §%s names no numbered section", where(m[0]), n))
			}
		}
	}
	for _, m := range roadmapItemRE.FindAllStringIndex(text, -1) {
		out = append(out, fmt.Sprintf("%s: cites a ROADMAP item by number; state its condition instead", where(m[0])))
	}
	return out
}

// checkFileLine resolves one file.go:N citation.
func (t *tree) checkFileLine(where, file string, n int) string {
	var hits []string
	if strings.Contains(file, "/") {
		for p := range t.lines {
			if p == file || strings.HasSuffix(p, "/"+file) {
				hits = append(hits, p)
			}
		}
	} else {
		hits = t.byBase[file]
	}
	switch {
	case len(hits) == 0:
		return fmt.Sprintf("%s: %s:%d: no such file", where, file, n)
	case len(hits) > 1:
		sort.Strings(hits)
		return fmt.Sprintf("%s: %s:%d: names %d files (%s); give the path", where, file, n, len(hits), strings.Join(hits, ", "))
	case t.lines[hits[0]] < n:
		return fmt.Sprintf("%s: %s:%d: the file has %d lines", where, file, n, t.lines[hits[0]])
	}
	return ""
}

// hasTest reports whether a _test.go file of the module declares name.
func (t *tree) hasTest(name string) bool {
	for _, names := range t.tests {
		if slices.Contains(names, name) {
			return true
		}
	}
	return false
}

// checkGoTest checks the -run, -bench and -fuzz patterns of one `go test`
// command line against the tests of the packages named on the same line.
func (t *tree) checkGoTest(where, cmd string) []string {
	args := shellWords(cmd)
	var pkgs []string
	type flag struct{ name, pattern string }
	var flags []flag
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case strings.HasPrefix(a, "./") || a == ".":
			pkgs = append(pkgs, a)
		case strings.HasPrefix(a, "-"):
			name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
			if name != "run" && name != "bench" && name != "fuzz" {
				continue
			}
			if !hasVal {
				if i+1 == len(args) {
					return []string{fmt.Sprintf("%s: go test -%s has no pattern", where, name)}
				}
				i++
				val = args[i]
			}
			flags = append(flags, flag{name, val})
		}
	}
	if len(flags) == 0 {
		return nil
	}
	if len(pkgs) == 0 {
		return []string{fmt.Sprintf("%s: go test -%s names no package on its line", where, flags[0].name)}
	}
	var names []string
	var out []string
	for _, p := range pkgs {
		dir := strings.TrimPrefix(strings.TrimPrefix(p, "."), "/")
		if dir == "" {
			dir = "."
		}
		under, all := strings.CutSuffix(dir, "/...")
		found := false
		for d, ns := range t.tests {
			if d == dir || dir == "..." || all && (d == under || strings.HasPrefix(d, under+"/")) {
				names = append(names, ns...)
				found = true
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("%s: go test %s: no package with tests", where, p))
		}
	}
	for _, f := range flags {
		if f.pattern == "^$" {
			continue
		}
		var kinds []string
		switch f.name {
		case "run":
			kinds = []string{"Test", "Fuzz", "Example"}
		case "bench":
			kinds = []string{"Benchmark"}
		case "fuzz":
			kinds = []string{"Fuzz"}
		}
		var cands []string
		for _, n := range names {
			for _, k := range kinds {
				if strings.HasPrefix(n, k) {
					cands = append(cands, n)
				}
			}
		}
		top, _, _ := strings.Cut(f.pattern, "/")
		alts := alternatives(top)
		if f.name == "fuzz" {
			alts = []string{top}
		}
		for _, alt := range alts {
			re, err := regexp.Compile(alt)
			if err != nil {
				out = append(out, fmt.Sprintf("%s: go test -%s %q: %v", where, f.name, f.pattern, err))
				continue
			}
			n := 0
			for _, c := range cands {
				if re.MatchString(c) {
					n++
				}
			}
			switch {
			case n == 0:
				out = append(out, fmt.Sprintf("%s: go test -%s %q matches no %s in %s", where, f.name, alt, strings.Join(kinds, "/"), strings.Join(pkgs, " ")))
			case f.name == "fuzz" && n > 1:
				out = append(out, fmt.Sprintf("%s: go test -fuzz %q matches %d fuzz targets in %s; it must match one", where, alt, n, strings.Join(pkgs, " ")))
			}
		}
	}
	return out
}

// alternatives splits a regexp at its top-level |.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// shellWords splits a command line into words, honouring single and
// double quotes, and stops at the first unquoted |, ;, &, >, #, ) or
// backtick: the end of the command.
func shellWords(s string) []string {
	var out []string
	var cur strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.IndexByte("|;&>#)`", c) >= 0:
			if inWord {
				out = append(out, cur.String())
			}
			return out
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// checkLines applies the rules that hold on every line of a checked file,
// markdown or not: test names, file.go:N citations, section and item
// citations and `go test` command lines.
func (t *tree) checkLines(name string, lines []string, sections map[string]bool) []string {
	var out []string
	for i, line := range lines {
		where := fmt.Sprintf("%s:%d", name, i+1)
		for _, tn := range testNameRE.FindAllString(line, -1) {
			if tn == "Test" || tn == "Benchmark" || tn == "Fuzz" || tn == "Example" {
				continue
			}
			if !t.hasTest(tn) {
				out = append(out, fmt.Sprintf("%s: %s: no _test.go file declares it", where, tn))
			}
		}
		for _, m := range fileLineRE.FindAllStringSubmatch(line, -1) {
			n, _ := strconv.Atoi(m[2])
			if m[3] != "" {
				n, _ = strconv.Atoi(m[3])
			}
			if p := t.checkFileLine(where, m[1], n); p != "" {
				out = append(out, p)
			}
		}
		if loc := goTestRE.FindStringIndex(line); loc != nil {
			out = append(out, t.checkGoTest(where, line[loc[1]:])...)
		}
	}
	return append(out, checkCites(name, 1, strings.Join(lines, "\n"), sections)...)
}

// checkMarkdown checks one markdown document: every line as checkLines
// does, and every dotted name in an inline code span outside fenced
// blocks. A span may run across a line break.
func (t *tree) checkMarkdown(name string, src string, sections map[string]bool) []string {
	lines := strings.Split(src, "\n")
	out := t.checkLines(name, lines, sections)
	prose := slices.Clone(lines)
	fenced := false
	for i, l := range prose {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			prose[i] = ""
		} else if fenced {
			prose[i] = ""
		}
	}
	text := strings.Join(prose, "\n")
	for i := 0; i < len(text); {
		if text[i] != '`' {
			i++
			continue
		}
		n := 1
		for i+n < len(text) && text[i+n] == '`' {
			n++
		}
		ticks := text[i : i+n]
		end := strings.Index(text[i+n:], ticks)
		if end < 0 {
			break
		}
		span := text[i+n : i+n+end]
		line := 1 + strings.Count(text[:i], "\n")
		for _, m := range dottedRE.FindAllStringSubmatch(span, -1) {
			if why := t.resolve(m[2]); why != "" {
				out = append(out, fmt.Sprintf("%s:%d: `%s`: %s", name, line, m[2], why))
			}
		}
		i += n + end + n
	}
	return out
}

// checkDocs runs every rule on the checked files of fsys and on the Go
// files' citations. A checked file under a dot directory (the verify
// skill, CI's workflow) is skipped when the tree has none, as an export
// of the sources may leave those directories out; every other checked
// file must exist.
func checkDocs(t *tree) ([]string, error) {
	sections := t.designSections()
	var out []string
	read := func(name string) (string, bool, error) {
		src, err := fs.ReadFile(t.fs, name)
		if errors.Is(err, fs.ErrNotExist) && strings.HasPrefix(name, ".") {
			return "", false, nil
		}
		return string(src), err == nil, err
	}
	for _, name := range checkedDocs {
		src, ok, err := read(name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t.checkMarkdown(name, src, sections)...)
		}
	}
	for _, name := range checkedScripts {
		src, ok, err := read(name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t.checkLines(name, strings.Split(src, "\n"), sections)...)
		}
	}
	for _, c := range t.goCites {
		out = append(out, checkCites(c.file, c.line, c.text, sections)...)
	}
	return out, nil
}

// TestDocsNameLiveCode holds the docs to the code: every Go name they
// cite in backticks is declared, every test name is a test, every
// file.go:N is a file of at least N lines, every `go test` pattern
// selects something, and every DESIGN.md §N is a section.
func TestDocsNameLiveCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := loadTree(os.DirFS(root))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDocs(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
