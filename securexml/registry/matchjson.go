package registry

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"dolxml/securexml"
)

// appendMatchesJSON appends the /query response body for ms: byte for byte
// what json.Encoder with SetIndent("", " ") writes for a []securexml.Match
// (clients and the benchmark harness hash bodies against encoding/json), but
// without reflection, an indenting second pass, or a buffer per value.
func appendMatchesJSON(dst []byte, ms []securexml.Match) []byte {
	switch {
	case ms == nil:
		return append(dst, "null\n"...)
	case len(ms) == 0:
		return append(dst, "[]\n"...)
	}
	// One allocation for the usual body: the fixed text around a match is 46
	// bytes plus the node's digits, and escapes are rare.
	n := 4
	for _, m := range ms {
		n += 56 + len(m.Tag) + len(m.Value)
	}
	dst = append(slices.Grow(dst, n), '[')
	for i, m := range ms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n {\n  \"Node\": "...)
		dst = strconv.AppendInt(dst, int64(m.Node), 10)
		dst = append(dst, ",\n  \"Tag\": "...)
		dst = appendJSONString(dst, m.Tag)
		dst = append(dst, ",\n  \"Value\": "...)
		dst = appendJSONString(dst, m.Value)
		dst = append(dst, "\n }"...)
	}
	return append(dst, "\n]\n"...)
}

const hexDigits = "0123456789abcdef"

// plain marks the ASCII bytes a JSON string carries as they are.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendJSONString appends s as encoding/json quotes it with HTML escaping
// on: <, > and & as \u003c, \u003e and \u0026, the other control bytes as
// \u00XX (\b, \f, \n, \r and \t short), each byte of invalid UTF-8 as the
// six characters \ufffd, and U+2028 / U+2029 as \u2028 / \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
