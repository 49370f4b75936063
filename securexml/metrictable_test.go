package securexml_test

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"dolxml/internal/obs"
	"dolxml/securexml"
	"dolxml/securexml/registry"
)

// metricTable reads the metric-name table that follows DESIGN.md's
// Observability paragraph: the backticked names of its "names" column, split into the
// store's and the tenant registry's (the rows whose family names the
// registry).
func metricTable(t *testing.T) (store, reg []string) {
	t.Helper()
	src, err := os.ReadFile("../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`^(#+ |\*\*)Observability`)
	name := regexp.MustCompile("`([a-z][a-z0-9_]*)`")
	in, rows := false, 0
	for _, line := range strings.Split(string(src), "\n") {
		if heading.MatchString(line) {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			if rows > 0 {
				break
			}
			continue
		}
		rows++
		cols := strings.Split(line, "|")
		if rows <= 2 || len(cols) < 4 {
			continue // the header and its separator
		}
		for _, m := range name.FindAllStringSubmatch(cols[2], -1) {
			if strings.Contains(cols[1], "registry") {
				reg = append(reg, m[1])
			} else {
				store = append(store, m[1])
			}
		}
	}
	if rows == 0 {
		t.Fatal("DESIGN.md has no metric table after its Observability paragraph")
	}
	sort.Strings(store)
	sort.Strings(reg)
	return store, reg
}

func snapshotNames(s obs.Snapshot) []string {
	var out []string
	for _, m := range []map[string]int64{s.Counters, s.Gauges} {
		for n := range m {
			out = append(out, n)
		}
	}
	for n := range s.Histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DESIGN.md's metric table lists exactly what a file-backed store
// registers, queried once, and what the tenant registry registers.
func TestDesignMetricTableMatchesRegistries(t *testing.T) {
	wantStore, wantReg := metricTable(t)

	s, err := securexml.NewBuilder().
		LoadXMLString(`<lib><book><title>t</title></book></lib>`).
		AddUser("reader").
		Grant("reader", "read", "/lib").
		Seal(securexml.StoreOptions{Path: filepath.Join(t.TempDir(), "pages.db")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.QueryCtx(context.Background(), "reader", "read", "//book[title]", securexml.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	diffNames(t, "a file-backed store", slices.Sorted(slices.Values(s.MetricNames())), wantStore)

	r, err := registry.New(registry.Options{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	diffNames(t, "the tenant registry", snapshotNames(r.MetricsSnapshot()), wantReg)
}

// diffNames reports each name registered and not listed, and each listed
// and not registered.
func diffNames(t *testing.T, who string, registered, listed []string) {
	t.Helper()
	for _, n := range registered {
		if !slices.Contains(listed, n) {
			t.Errorf("%s registers %s, which DESIGN.md's metric table leaves out", who, n)
		}
	}
	for _, n := range listed {
		if !slices.Contains(registered, n) {
			t.Errorf("DESIGN.md's metric table lists %s, which %s does not register", n, who)
		}
	}
}
