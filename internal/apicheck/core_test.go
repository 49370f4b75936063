package apicheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// source is one single-file package of an in-memory module "m".
type source struct{ path, src string }

// checkSources type-checks the packages in dependency order and runs check
// on them.
func checkSources(t *testing.T, srcs []source, allow []allowEntry) []string {
	t.Helper()
	fset := token.NewFileSet()
	done := map[string]*types.Package{}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if tp := done[p]; tp != nil {
			return tp, nil
		}
		return nil, fmt.Errorf("no package %q", p)
	})
	var pkgs []*pkg
	for _, s := range srcs {
		name := strings.TrimPrefix(s.path, "m/") + "/" + path.Base(s.path) + ".go"
		f, err := parser.ParseFile(fset, name, s.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		p, err := checkPackage(fset, s.path, []*ast.File{f}, []string{name}, imp)
		if err != nil {
			t.Fatal(err)
		}
		done[s.path] = p.types
		pkgs = append(pkgs, p)
	}
	return check(fset, pkgs, "m/internal/", allow)
}

func TestCheckCore(t *testing.T) {
	for _, tc := range []struct {
		name  string
		srcs  []source
		allow []allowEntry
		want  []string
	}{{
		name: "unused exported and unexported functions",
		srcs: []source{
			{"m/internal/a", `package a

func Used() {}

func Unused() {}

func helper() {}

// Loop calls only itself.
func loop(n int) {
	if n > 0 {
		loop(n - 1)
	}
}
`},
			{"m/cmd/c", `package main

import "m/internal/a"

func main() { a.Used() }
`},
		},
		want: []string{
			"internal/a/a.go:5: m/internal/a.Unused has no caller outside the tests",
			"internal/a/a.go:7: m/internal/a.helper is referenced by nothing",
			"internal/a/a.go:10: m/internal/a.loop is referenced by nothing",
		},
	}, {
		name: "exported functions outside internal/ are the product API",
		srcs: []source{{"m/api", `package api

func Open() {}
`}},
	}, {
		name: "a method reached only through an anonymous interface in a type assertion",
		srcs: []source{
			{"m/internal/pager", `package pager

type WAL struct{}

func (*WAL) LastAbortDirty() bool { return false }

func New() any { return &WAL{} }
`},
			{"m/store", `package store

import "m/internal/pager"

func NoteAbort() bool {
	type dirtyReporter interface{ LastAbortDirty() bool }
	d, ok := pager.New().(dirtyReporter)
	return ok && d.LastAbortDirty()
}
`},
		},
	}, {
		name: "a method promoted through an embedded field",
		srcs: []source{
			{"m/internal/base", `package base

type Base struct{}

func (Base) Hello() string { return "hello" }

type Outer struct{ Base }
`},
			{"m/cmd/c", `package main

import "m/internal/base"

func main() { println(base.Outer{}.Hello()) }
`},
		},
	}, {
		name: "a method of a generic type called on an instantiation",
		srcs: []source{
			{"m/internal/box", `package box

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }
`},
			{"m/cmd/c", `package main

import "m/internal/box"

func main() { println(box.Box[int]{}.Get()) }
`},
		},
	}, {
		name: "an embedded struct field",
		srcs: []source{
			{"m/internal/btree", `package btree

type Posting struct{ Node, End int }
`},
			{"m/query", `package query

import "m/internal/btree"

type indexAnswer struct {
	btree.Posting
	class int
}

func Answer() int {
	a := indexAnswer{class: 1}
	return a.Node + a.class
}
`},
		},
	}, {
		name: "an allowlisted function, and a stale allowlist line",
		srcs: []source{
			{"m/internal/a", `package a

func Used() {}

func Hook() {}
`},
			{"m/cmd/c", `package main

import "m/internal/a"

func main() { a.Used() }
`},
		},
		allow: []allowEntry{
			{name: "m/internal/a.Hook", line: 1},
			{name: "m/internal/a.Used", line: 2},
		},
		want: []string{
			"allowlist.txt:2: m/internal/a.Used names no function without a caller; delete the line",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkSources(t, tc.srcs, tc.allow); !slices.Equal(got, tc.want) {
				t.Errorf("check reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

func TestParseAllowlist(t *testing.T) {
	got, err := parseAllowlist(strings.NewReader("# comment\n\nm/internal/a.F  test support\n"))
	if err != nil || len(got) != 1 || got[0] != (allowEntry{name: "m/internal/a.F", line: 3}) {
		t.Fatalf("parseAllowlist = %+v, %v", got, err)
	}
	if _, err := parseAllowlist(strings.NewReader("m/internal/a.F\n")); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
}

func TestDocCheckCore(t *testing.T) {
	module := fstest.MapFS{
		"go.mod":         {Data: []byte("module m\n")},
		"BENCHMARK.json": {Data: []byte(`{"per_layer": [{"name": "store.open_ms"}]}`)},
		"DESIGN.md":      {Data: []byte("# D\n\n## 1. Pager\n\n## 2. Store\n")},
		"store/store.go": {Data: []byte(`package store

import "strings"

type Base struct{ Pages int }

type Store struct {
	Base
	path string
}

func (s *Store) Query() string { return strings.ToLower(s.path) }

func Open() *Store { return nil }
`)},
		"store/store_test.go": {Data: []byte(`package store

import "testing"

func TestOpen(t *testing.T) {}

func BenchmarkOpen(b *testing.B) {}

func FuzzOpen(f *testing.F) {}
`)},
	}
	tr, err := loadTree(module)
	if err != nil {
		t.Fatal(err)
	}
	sections := tr.designSections()
	for _, tc := range []struct {
		doc  string
		want []string
	}{
		{doc: "`store.Open`, `store.Store.Query`, `Store.Pages` (promoted), `Store.path`, " +
			"`strings.Builder.WriteString`, `store.open_ms`, `store.go:14`, `pages.db`, `e.g.`, " +
			"TestOpen, `go test -run 'Open|^TestOpen$' -bench Open -fuzz=FuzzOpen ./store`, DESIGN.md §2\n"},
		{doc: "`store.Close` and\n`Store.Close`, `s.Query`, `strings.NoSuch`\n", want: []string{
			"doc.md:1: `store.Close`: names no declaration",
			"doc.md:2: `Store.Close`: type Store has no member Close",
			"doc.md:2: `s.Query`: s is no package and no type: name the type",
			"doc.md:2: `strings.NoSuch`: names no declaration",
		}},
		{doc: "TestClose, `store.go:99`, `nosuch.go:1`\n", want: []string{
			"doc.md:1: TestClose: no _test.go file declares it",
			"doc.md:1: store.go:99: the file has 14 lines",
			"doc.md:1: nosuch.go:1: no such file",
		}},
		{doc: "```\ngo test -fuzz=FuzzClose ./store\ngo test -run 'Open|Close' ./store\ngo test -bench Open\n```\n", want: []string{
			"doc.md:2: FuzzClose: no _test.go file declares it",
			"doc.md:2: go test -fuzz \"FuzzClose\" matches no Fuzz in ./store",
			"doc.md:3: go test -run \"Close\" matches no Test/Fuzz/Example in ./store",
			"doc.md:4: go test -bench names no package on its line",
		}},
		{doc: "DESIGN.md §3, DESIGN.md §\"Pager\", ROADMAP\nitem " + "4\n", want: []string{
			"doc.md:1: DESIGN.md §3 names no numbered section",
			"doc.md:1: DESIGN.md §\" names no numbered section",
			"doc.md:1: cites a ROADMAP item by number; state its condition instead",
		}},
	} {
		if got := tr.checkMarkdown("doc.md", tc.doc, sections); !slices.Equal(got, tc.want) {
			t.Errorf("%q:\ngot\n%s\nwant\n%s", tc.doc, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
