package securexml

import (
	"context"
	"strings"
	"testing"
)

// bigStore builds a document wide enough to span many pages at a small page
// size, with a user who can read everything except <secret> subtrees. A long
// run of <pad/> leaves sits between two book clusters, so whole pages exist
// that hold no book or title at all.
func bigStore(t *testing.T, opts StoreOptions) *Store {
	t.Helper()
	books := func(sb *strings.Builder, n int) {
		for i := 0; i < n; i++ {
			sb.WriteString("<book><title>t</title><secret>s</secret></book>")
		}
	}
	var sb strings.Builder
	sb.WriteString("<lib>")
	books(&sb, 250)
	for i := 0; i < 2000; i++ {
		sb.WriteString("<pad/>")
	}
	books(&sb, 250)
	sb.WriteString("</lib>")
	s, err := NewBuilder().
		LoadXMLString(sb.String()).
		AddUser("reader").
		Grant("reader", "read", "/lib").
		Revoke("reader", "read", "//secret").
		Seal(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDecodeCacheBytesOption(t *testing.T) {
	// Default budget: the cache is live and collects entries under load.
	s := bigStore(t, StoreOptions{PageSize: 256})
	if _, err := s.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DecodeCache.Budget <= 0 || st.DecodeCache.Entries == 0 {
		t.Fatalf("default decode cache inactive: %+v", st.DecodeCache)
	}
	if st.SummaryBytes != 0 || st.PathSummaryBytes <= 0 {
		t.Fatalf("SummaryBytes = %d, PathSummaryBytes = %d; want 0 and > 0", st.SummaryBytes, st.PathSummaryBytes)
	}
	s.Close()

	// Explicit budget is honored.
	s = bigStore(t, StoreOptions{PageSize: 256, DecodeCacheBytes: 1 << 14})
	if cs := s.DecodeCacheStats(); cs.Budget != 1<<14 {
		t.Fatalf("budget = %d, want %d", cs.Budget, 1<<14)
	}
	s.Close()

	// Negative disables caching entirely.
	s = bigStore(t, StoreOptions{PageSize: 256, DecodeCacheBytes: -1})
	defer s.Close()
	if _, err := s.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	cs := s.DecodeCacheStats()
	if cs.Budget != 0 || cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("disabled decode cache holds state: %+v", cs)
	}
}

// DisableSummarySkip is accepted and ignored: it changes no answer.
func TestQueryCtxDisableSummarySkip(t *testing.T) {
	s := bigStore(t, StoreOptions{PageSize: 256})
	defer s.Close()
	ctx := context.Background()
	on, err := s.QueryCtx(ctx, "reader", "read", "//book[title]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := s.QueryCtx(ctx, "reader", "read", "//book[title]", QueryOptions{DisableSummarySkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(on) != len(off) {
		t.Fatalf("answers differ: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i].Node != off[i].Node {
			t.Fatalf("answer %d differs: %d vs %d", i, on[i].Node, off[i].Node)
		}
	}
}
