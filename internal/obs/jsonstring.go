package obs

import "unicode/utf8"

// AppendJSONString appends s as a quoted JSON string, escaped as
// encoding/json escapes it. The analysis report and the trace exporter
// both write their strings with it.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendStringBody(b, s)
	return append(b, '"')
}

// jsonSafe marks the ASCII bytes that stand for themselves in a JSON
// string: printable, and neither a quote, a backslash nor one of the
// HTML-sensitive <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendStringBody appends the escaped contents of s: a backslash before
// " and \, \b \f \n \r \t for those control characters and \u00XX for
// the others, \u003c \u003e \u0026 for < > &, \u2028 and \u2029 for the
// line and paragraph separators, and \ufffd for each byte of invalid
// UTF-8.
func appendStringBody(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
