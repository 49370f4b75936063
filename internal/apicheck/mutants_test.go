package apicheck

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/fstest"

	"dolxml/internal/mutation"
)

// mutantsTable is the mutation table cmd/mutants runs.
const mutantsTable = "cmd/mutants/mutants.txt"

// checkMutants holds the mutation table to the tree: each entry's old text
// occurs exactly once in its file, and each test it names is a Test, Fuzz
// or Example function of the package it names. A table that drifted from
// the code fails here in a plain go test run, not only in the slow runner.
func checkMutants(t *tree) ([]string, error) {
	src, err := fs.ReadFile(t.fs, mutantsTable)
	if err != nil {
		return nil, err
	}
	entries, err := mutation.Parse(mutantsTable, src)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		where := fmt.Sprintf("%s:%d: entry %s", mutantsTable, e.Line, e.Name)
		if file, err := fs.ReadFile(t.fs, e.File); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", where, err))
		} else if _, err := e.Apply(file); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", where, err))
		}
		for _, pt := range e.Tests {
			dir := pkgDir(pt.Pkg)
			for _, n := range pt.Names {
				if !slices.Contains(t.tests[dir], n) {
					out = append(out, fmt.Sprintf("%s: %s selects nothing in %s", where, n, pt.Pkg))
				}
			}
		}
	}
	return out, nil
}

// pkgDir is the module-relative directory of a ./pkg argument.
func pkgDir(pkg string) string {
	if dir := strings.TrimPrefix(strings.TrimPrefix(pkg, "."), "/"); dir != "" {
		return dir
	}
	return "."
}

// TestMutationTableMatchesCode runs checkMutants on the module.
func TestMutationTableMatchesCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := loadTree(os.DirFS(root))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkMutants(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// The check names the entry whose old text went missing or repeats, and
// the test name that selects nothing.
func TestCheckMutantsReportsDrift(t *testing.T) {
	const code = "package a\n\nfunc F() int {\n\treturn 1\n}\n\nfunc G() int {\n\treturn 1\n}\n"
	const test = "package a\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) {}\n"
	table := strings.Join([]string{
		"== good", "file: a/a.go", "test: ./a TestF", "-- old", "func F() int {", "-- new", "func F() int { return 2 }", "",
		"== gone", "file: a/a.go", "test: ./a TestF", "-- old", "func H() int {", "-- new", "func H() int { return 2 }", "",
		"== twice", "file: a/a.go", "test: ./a TestF", "-- old", "\treturn 1", "-- new", "\treturn 2", "",
		"== renamed", "file: a/a.go", "test: ./a TestG", "-- old", "func G() int {", "-- new", "func G() int { return 2 }", "",
	}, "\n")
	tr, err := loadTree(fstest.MapFS{
		"a/a.go":      {Data: []byte(code)},
		"a/a_test.go": {Data: []byte(test)},
		mutantsTable:  {Data: []byte(table)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkMutants(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		mutantsTable + ":9: entry gone: its old text occurs 0 times in a/a.go, not once",
		mutantsTable + ":17: entry twice: its old text occurs 2 times in a/a.go, not once",
		mutantsTable + ":25: entry renamed: TestG selects nothing in ./a",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
