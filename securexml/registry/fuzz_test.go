package registry

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"dolxml/securexml"
)

// FuzzRegistryPaths fuzzes the tenant-id → store-directory mapping, the
// only place untrusted request bytes meet the filesystem. Whatever the
// input, an accepted ID must resolve to a direct child of root — no
// traversal, no absolute escapes, no separator smuggling.
func FuzzRegistryPaths(f *testing.F) {
	for _, seed := range []string{
		"tenant-01", "a", "..", "../../etc/passwd", "a/../b", "a/b",
		"a\\b", "C:\\x", ".", ".hidden", "-", "_", "UPPER", "t\x00x",
		strings.Repeat("a", 64), strings.Repeat("a", 65), "a..b", "a.b",
		"%2e%2e%2f", "a\nb", "\u2025", "ｅｖｉｌ",
	} {
		f.Add(seed)
	}
	const root = "/srv/dolxml/tenants"
	f.Fuzz(func(t *testing.T, id string) {
		p, err := TenantPath(root, id)
		if err != nil {
			return // rejected — nothing else to hold
		}
		if p != filepath.Join(root, id) {
			t.Fatalf("TenantPath(%q) = %q, not root/id", id, p)
		}
		if filepath.Dir(p) != root {
			t.Fatalf("TenantPath(%q) = %q escapes root", id, p)
		}
		if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") ||
			strings.ContainsAny(id, "\x00\n\r ") || id != strings.ToLower(id) {
			t.Fatalf("TenantPath accepted suspicious id %q", id)
		}
		if rel, err := filepath.Rel(root, p); err != nil || rel != id || strings.HasPrefix(rel, "..") {
			t.Fatalf("TenantPath(%q): rel = %q err = %v", id, rel, err)
		}
	})
}

// stdMatchesJSON is the /query body as the server wrote it before the append
// encoder: what every client, and the harness's goldens, saw.
func stdMatchesJSON(t testing.TB, ms []securexml.Match) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(ms); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzMatchesJSON holds the append encoder of /query responses to
// encoding/json byte for byte on arbitrary tag and value bytes: every escape
// class, invalid UTF-8, and the nil / empty / one / several shapes.
func FuzzMatchesJSON(f *testing.F) {
	for _, seed := range []string{
		"", "keyword", `<a href="x">&amp;</a>`, "back\\slash \"quoted\"",
		"\n\r\t\b\f", "\x00\x01\x1f\x7f", "caf\u00e9 \u4e16\u754c \U0001f600",
		"\u2028 \u2029", "\xff\xfe", "\xc3", "a\xe2\x80b", "\xed\xa0\x80", "\ufffd",
	} {
		f.Add(int32(7), seed, seed+"!", uint8(2))
	}
	f.Add(int32(-1), "t", "v", uint8(0))
	f.Add(int32(0), "t", "v", uint8(1))
	f.Fuzz(func(t *testing.T, node int32, tag, value string, shape uint8) {
		var ms []securexml.Match
		switch shape % 4 {
		case 0: // nil
		case 1:
			ms = []securexml.Match{}
		case 2:
			ms = []securexml.Match{{Node: securexml.NodeID(node), Tag: tag, Value: value}}
		default:
			ms = []securexml.Match{{Node: securexml.NodeID(node), Tag: tag, Value: value}, {Tag: value}, {Node: 1 << 30, Value: tag}}
		}
		got, want := appendMatchesJSON(nil, ms), stdMatchesJSON(t, ms)
		if !bytes.Equal(got, want) {
			t.Fatalf("append encoder wrote\n%q\nencoding/json\n%q", got, want)
		}
		// Appending leaves what the buffer held alone.
		if got := appendMatchesJSON([]byte("x"), ms); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appended to a used buffer: %q", got)
		}
	})
}

// BenchmarkQueryResponse encodes bodies shaped like the nine the benchmark
// harness requests (answer counts and value lengths of Q1–Q6, Qunsat, Q5lim
// and Qval on its 20k-node tenant), with the append encoder and with the
// json.Encoder it replaced.
func BenchmarkQueryResponse(b *testing.B) {
	var bodies [][]securexml.Match
	for _, sh := range []struct {
		n          int
		tag, value string
	}{
		{65, "item", ""}, {62, "bold", "gold dust and <fine> silver"}, {62, "bold", "gold dust and <fine> silver"},
		{370, "parlist", ""}, {339, "keyword", "officer embrace such"}, {151, "emph", "preventions & amends"},
		{0, "", ""}, {10, "keyword", "officer embrace such"}, {1, "name", "Kawon Unni"},
	} {
		ms := make([]securexml.Match, sh.n)
		for i := range ms {
			ms[i] = securexml.Match{Node: securexml.NodeID(1000 + 37*i), Tag: sh.tag, Value: sh.value}
		}
		bodies = append(bodies, ms)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ms := range bodies {
				sinkBody = appendMatchesJSON(nil, ms)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ms := range bodies {
				sinkBody = stdMatchesJSON(b, ms)
			}
		}
	})
}

var sinkBody []byte
