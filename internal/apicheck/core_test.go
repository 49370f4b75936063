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
