// Package mutation reads the mutation table: defects, each written as one
// text replacement in one source file, that the tests of the default
// `go test ./...` run must catch. cmd/mutants applies each entry through
// `go test -overlay` and fails when a mutant survives; internal/apicheck
// holds the table to the code in every plain `go test` run.
//
// The table is plain text. A line starting with "#" is a comment; the
// comment just above an entry says what its defect is. An entry is
//
//	== name
//	file: internal/storage/pager.go
//	test: ./internal/storage TestFilePagerSyncsOnlyWhenDirty
//	test: ./securexml TestUpdatedVisitSyncsOnClose
//	survives
//	-- old
//	<lines replaced>
//	-- new
//	<replacement lines>
//
// file is module-relative. Each test line names a package and the tests in
// it (top-level Test, Fuzz or Example functions) that the mutant must
// fail; one go test run takes every package and test named. survives
// marks a control entry, one that changes no behaviour and must pass. The
// old block must occur exactly once in the file. A block runs to the next
// line starting with "== ", "-- " or "#"; its trailing blank lines are
// dropped.
package mutation

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Entry is one mutant.
type Entry struct {
	Name     string
	Line     int // the line of its "==" header in the table
	File     string
	Old, New string
	Tests    []PkgTests
	Survives bool
}

// PkgTests is a package and the tests in it that a mutant must fail.
type PkgTests struct {
	Pkg   string
	Names []string
}

// Packages returns the entry's packages in table order.
func (e *Entry) Packages() []string {
	var out []string
	for _, pt := range e.Tests {
		out = append(out, pt.Pkg)
	}
	return out
}

// TestNames returns every test the entry names, sorted, without repeats.
func (e *Entry) TestNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, pt := range e.Tests {
		for _, n := range pt.Names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// RunPattern is the -run pattern that selects exactly the entry's tests.
func (e *Entry) RunPattern() string {
	return "^(" + strings.Join(e.TestNames(), "|") + ")$"
}

// Apply returns src with the entry's old text replaced by its new text. It
// fails unless the old text occurs exactly once.
func (e *Entry) Apply(src []byte) ([]byte, error) {
	if n := bytes.Count(src, []byte(e.Old)); n != 1 {
		return nil, fmt.Errorf("its old text occurs %d times in %s, not once", n, e.File)
	}
	return bytes.Replace(src, []byte(e.Old), []byte(e.New), 1), nil
}

var (
	nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)
	testRE = regexp.MustCompile(`^(Test|Fuzz|Example)\w*$`)
)

// Parse reads a table; name is its file name, for errors.
func Parse(name string, src []byte) ([]Entry, error) {
	lines := strings.Split(strings.TrimSuffix(string(src), "\n"), "\n")
	var out []Entry
	var cur *Entry
	var block *string // the block being read, or nil
	seen := map[string]bool{}
	errf := func(i int, format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", name, i+1, fmt.Sprintf(format, args...))
	}
	finish := func() error {
		if cur == nil {
			return nil
		}
		e := cur
		e.Old, e.New = trimBlock(e.Old), trimBlock(e.New)
		switch {
		case e.File == "":
			return errf(e.Line-1, "entry %s has no file", e.Name)
		case e.Old == "":
			return errf(e.Line-1, "entry %s has no old text", e.Name)
		case e.Old == e.New:
			return errf(e.Line-1, "entry %s changes nothing", e.Name)
		case len(e.Tests) == 0:
			return errf(e.Line-1, "entry %s names no test", e.Name)
		}
		out = append(out, *e)
		cur, block = nil, nil
		return nil
	}
	for i, line := range lines {
		if block != nil && !strings.HasPrefix(line, "== ") && !strings.HasPrefix(line, "-- ") && !strings.HasPrefix(line, "#") {
			*block += line + "\n"
			continue
		}
		switch {
		case strings.HasPrefix(line, "#"):
			if err := finish(); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "== "):
			if err := finish(); err != nil {
				return nil, err
			}
			n := strings.TrimSpace(line[3:])
			if !nameRE.MatchString(n) {
				return nil, errf(i, "entry name %q: use lower case, digits and -", n)
			}
			if seen[n] {
				return nil, errf(i, "entry %s repeats a name", n)
			}
			seen[n] = true
			cur = &Entry{Name: n, Line: i + 1}
		case cur == nil:
			if strings.TrimSpace(line) != "" {
				return nil, errf(i, "%q outside an entry", line)
			}
		case line == "-- old":
			if cur.Old != "" || cur.New != "" {
				return nil, errf(i, "entry %s: a second old block", cur.Name)
			}
			block = &cur.Old
		case line == "-- new":
			if block != &cur.Old {
				return nil, errf(i, "entry %s: -- new must follow the old block", cur.Name)
			}
			block = &cur.New
		case strings.HasPrefix(line, "file: "):
			cur.File = strings.TrimSpace(line[len("file: "):])
		case strings.HasPrefix(line, "test: "):
			f := strings.Fields(line[len("test: "):])
			if len(f) < 2 || !strings.HasPrefix(f[0], "./") {
				return nil, errf(i, "want test: ./pkg Name…")
			}
			for _, t := range f[1:] {
				if !testRE.MatchString(t) {
					return nil, errf(i, "%q is no Test, Fuzz or Example name", t)
				}
			}
			cur.Tests = append(cur.Tests, PkgTests{Pkg: f[0], Names: f[1:]})
		case line == "survives":
			cur.Survives = true
		case strings.TrimSpace(line) == "":
		default:
			return nil, errf(i, "entry %s: unknown line %q", cur.Name, line)
		}
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// trimBlock drops a block's trailing blank lines.
func trimBlock(s string) string {
	for strings.HasSuffix(s, "\n\n") {
		s = s[:len(s)-1]
	}
	if strings.TrimSpace(s) == "" {
		return ""
	}
	return s
}
