package server

// Request decoding: the analyze handler reads a body once and decodes
// its first JSON value by hand. A daemon-edit body is ~200 KB of C
// source texts; through encoding/json it cost about 1 ms and 900 KB
// (the Decoder's growing read buffer, a scan of the whole value before
// decoding, reflection, and a copy of every string). Here the body is
// read into one buffer, every string is unescaped in that buffer, and
// each decoded string is copied out once at its exact size.
//
// The decoder accepts and rejects exactly what a json.Decoder with
// DisallowUnknownFields does when it decodes one value into an
// AnalyzeRequest, and an accepted body decodes to the same struct:
// keys match field names exactly or case-insensitively (with the
// Kelvin sign and long s folding to k and s), null leaves a string,
// bool or struct element alone and clears a slice, a repeated key
// decodes again over its earlier value, invalid UTF-8 and unpaired
// surrogates become U+FFFD, and whatever follows the first value is
// never read. FuzzDecodeRequest holds it to encoding/json, which
// decodes requests only in tests.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// errBodyTooLarge is readBody's error for a body over maxRequestBytes.
var errBodyTooLarge = fmt.Errorf("request body exceeds the %d MiB cap", maxRequestBytes>>20)

// exactBodyBytes bounds the buffer readBody sizes from Content-Length
// before any of the body has arrived, so that a client cannot make the
// server allocate the whole cap by declaring it.
const exactBodyBytes = 1 << 20

// readBody reads a request body whole: into a buffer of exactly
// Content-Length bytes when the client declared at most
// exactBodyBytes, else into a buffer that grows as the body arrives
// and stops at the cap. A body over maxRequestBytes is errBodyTooLarge
// either way, and a declared length over it is refused unread.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxRequestBytes {
		return nil, errBodyTooLarge
	}
	if n := r.ContentLength; n >= 0 && n <= exactBodyBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, errBodyTooLarge
	}
	return buf, err
}

// decodeRequest decodes the first JSON value of body as an
// AnalyzeRequest. It unescapes strings in place, so it overwrites body.
func decodeRequest(body []byte) (AnalyzeRequest, error) {
	d := decoder{data: body}
	var req AnalyzeRequest
	c, err := d.peek()
	switch {
	case err != nil:
		return req, io.EOF // nothing but white space
	case c == 'n':
		return req, d.literal("null")
	case c != '{':
		return req, d.typeError(c, "server.AnalyzeRequest", "")
	}
	d.off++
	for first := true; ; first = false {
		key, done, err := d.nextKey(first)
		if err != nil || done {
			return req, err
		}
		switch {
		case fieldIs(key, "sources"):
			err = decodeArray(&d, &req.Sources, "sources", decodeSource)
		case fieldIs(key, "lang"):
			err = d.string(&req.Lang, "lang")
		case fieldIs(key, "poly"):
			err = d.bool(&req.Poly, "poly")
		case fieldIs(key, "uninit"):
			err = d.bool(&req.Uninit, "uninit")
		case fieldIs(key, "simplify"):
			err = d.bool(&req.Simplify, "simplify")
		case fieldIs(key, "polyrec"):
			err = d.bool(&req.PolyRec, "polyrec")
		case fieldIs(key, "analyses"):
			err = decodeArray(&d, &req.Analyses, "analyses", decodeAnalysis)
		case fieldIs(key, "preludes"):
			err = decodeArray(&d, &req.Preludes, "preludes", decodePrelude)
		case fieldIs(key, "session"):
			err = d.string(&req.Session, "session")
		default:
			err = fmt.Errorf("json: unknown field %q", key)
		}
		if err != nil {
			return req, err
		}
	}
}

func decodeSource(d *decoder, s *SourceJSON) error {
	return d.pathText(&s.Path, &s.Text, "sources", "sources.path", "sources.text")
}

func decodePrelude(d *decoder, p *PreludeJSON) error {
	return d.pathText(&p.Path, &p.Text, "preludes", "preludes.path", "preludes.text")
}

func decodeAnalysis(d *decoder, name *string) error { return d.string(name, "analyses") }

// decoder walks one request body; off is the next byte to read.
type decoder struct {
	data []byte
	off  int
}

// peek skips white space and returns the next byte without consuming
// it; the body ending first is io.ErrUnexpectedEOF.
func (d *decoder) peek() (byte, error) {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, io.ErrUnexpectedEOF
}

// syntaxError reports byte c at the read offset, in encoding/json's
// words.
func (d *decoder) syntaxError(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s (offset %d)", c, context, d.off)
}

// typeError rejects a value that starts with c where a value of
// another type belongs: in the named field, or as the whole request
// when field is empty.
func (d *decoder) typeError(c byte, want, field string) error {
	var got string
	switch {
	case c == '"':
		got = "string"
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return d.syntaxError(c, "looking for beginning of value")
	}
	if field == "" {
		return fmt.Errorf("json: cannot unmarshal %s into Go value of type %s", got, want)
	}
	return fmt.Errorf("json: cannot unmarshal %s into field %q of type %s", got, field, want)
}

// literal consumes the literal word (null, true or false) at the read
// offset.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if c := d.data[d.off]; c != word[i] {
			return d.syntaxError(c, "in literal "+word)
		}
		d.off++
	}
	return nil
}

// nextKey reads the key of an object's next member and the colon after
// it: first is set just after the '{'. done reports the closing '}'.
func (d *decoder) nextKey(first bool) (key []byte, done bool, err error) {
	c, err := d.peek()
	if err != nil {
		return nil, false, err
	}
	switch {
	case c == '}':
		d.off++
		return nil, true, nil
	case !first && c != ',':
		return nil, false, d.syntaxError(c, "after object key:value pair")
	case !first:
		d.off++
		if c, err = d.peek(); err != nil {
			return nil, false, err
		}
	}
	if c != '"' {
		return nil, false, d.syntaxError(c, "looking for beginning of object key string")
	}
	if key, err = d.unquote(); err != nil {
		return nil, false, err
	}
	if c, err = d.peek(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, d.syntaxError(c, "after object key")
	}
	d.off++
	return key, false, nil
}

// string decodes a string or null into *s; null leaves *s alone.
func (d *decoder) string(s *string, field string) error {
	c, err := d.peek()
	switch {
	case err != nil:
		return err
	case c == '"':
		b, err := d.unquote()
		*s = string(b)
		return err
	case c == 'n':
		return d.literal("null")
	}
	return d.typeError(c, "string", field)
}

// bool decodes true, false or null into *b; null leaves *b alone.
func (d *decoder) bool(b *bool, field string) error {
	c, err := d.peek()
	switch {
	case err != nil:
		return err
	case c == 't':
		*b = true
		return d.literal("true")
	case c == 'f':
		*b = false
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.typeError(c, "bool", field)
}

// pathText decodes a {"path", "text"} object or null into the two
// strings; null leaves them alone.
func (d *decoder) pathText(path, text *string, field, pathField, textField string) error {
	c, err := d.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '{':
		return d.typeError(c, "object", field)
	}
	d.off++
	for first := true; ; first = false {
		key, done, err := d.nextKey(first)
		if err != nil || done {
			return err
		}
		switch {
		case fieldIs(key, "path"):
			err = d.string(path, pathField)
		case fieldIs(key, "text"):
			err = d.string(text, textField)
		default:
			err = fmt.Errorf("json: unknown field %q", key)
		}
		if err != nil {
			return err
		}
	}
}

// decodeArray decodes an array or null into *s the way encoding/json
// does. null sets *s to nil and [] to an empty slice. Otherwise the
// slice grows one element at a time and each element decodes over what
// the array already holds there, so a repeated key decodes its array
// over the elements of the earlier one, and the result is truncated to
// the elements given.
func decodeArray[T any](d *decoder, s *[]T, field string, elem func(*decoder, *T) error) error {
	c, err := d.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		*s = nil
		return d.literal("null")
	case c != '[':
		return d.typeError(c, "array", field)
	}
	d.off++
	a := *s
	i := 0
	for ; ; i++ {
		c, err := d.peek()
		if err != nil {
			return err
		}
		if i == 0 && c == ']' {
			break
		}
		if i > 0 {
			if c == ']' {
				break
			}
			if c != ',' {
				return d.syntaxError(c, "after array element")
			}
			d.off++
		}
		if i == cap(a) {
			a = append(a, *new(T))
		}
		if i == len(a) {
			a = a[:i+1]
		}
		if err := elem(d, &a[i]); err != nil {
			*s = a
			return err
		}
	}
	d.off++ // ']'
	if i == 0 {
		a = make([]T, 0)
	}
	*s = a[:i]
	return nil
}

// plain marks the bytes a string literal holds as themselves: ASCII
// from the space up, except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the end of the run of plain bytes at data[i:]. It
// tests eight bytes at a time: a byte below the space, the quote, the
// backslash or a byte from 0x80 up sets the high bit of its lane in
// stop, exactly for the lowest such byte (a borrow only reaches lanes
// above it).
func plainRun(data []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(data); i += 8 {
		x := binary.LittleEndian.Uint64(data[i:])
		q, b := x^(ones*'"'), x^(ones*'\\')
		stop := ((x-ones*' ')&^x | (q-ones)&^q | (b-ones)&^b | x) & highs
		if stop != 0 {
			return i + bits.TrailingZeros64(stop)/8
		}
	}
	for i < len(data) && plain[data[i]] {
		i++
	}
	return i
}

// unescape maps the byte after a backslash to the byte its two-byte
// escape stands for, zero for \u and for bytes no escape begins with.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// replacement is U+FFFD in UTF-8.
const replacement = "�"

// unquote decodes the string literal at the read offset. It decodes in
// place: the decoded bytes overwrite the literal's own, which an escape
// never decodes longer than, so the result is a view of d.data. Only an
// invalid UTF-8 byte decodes longer, to U+FFFD's three bytes; when one
// would overrun the bytes not yet read, the rest of the string goes to
// a fresh buffer.
func (d *decoder) unquote() ([]byte, error) {
	data := d.data
	lo := d.off + 1
	i := plainRun(data, lo)
	w := i           // data[lo:w] holds the decoded bytes
	var spill []byte // the decoded bytes once they outgrow the literal
	for {
		if i >= len(data) {
			d.off = i
			return nil, io.ErrUnexpectedEOF
		}
		c := data[i]
		if c == '"' {
			d.off = i + 1
			if spill != nil {
				return spill, nil
			}
			return data[lo:w], nil
		}
		// Find the next run of bytes that stand for themselves.
		j := i
		switch {
		case plain[c]:
			j = plainRun(data, i+1)
		case c == '\\':
			if i+1 < len(data) && spill == nil {
				if e := unescape[data[i+1]]; e != 0 {
					data[w] = e
					w++
					i += 2
					continue
				}
			}
			r, n, err := d.escape(i)
			if err != nil {
				return nil, err
			}
			i += n
			if spill != nil {
				spill = utf8.AppendRune(spill, r)
			} else {
				w += utf8.EncodeRune(data[w:], r)
			}
			continue
		case c < ' ':
			d.off = i
			return nil, d.syntaxError(c, "in string literal")
		default:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				i++
				if spill == nil && w+len(replacement) > i {
					spill = append(make([]byte, 0, w-lo+len(replacement)+len(data)-i), data[lo:w]...)
				}
				if spill != nil {
					spill = append(spill, replacement...)
				} else {
					w += copy(data[w:], replacement)
				}
				continue
			}
			j += n
		}
		switch {
		case spill != nil:
			spill = append(spill, data[i:j]...)
		case w != i:
			copy(data[w:], data[i:j])
		}
		w += j - i
		i = j
	}
}

// escape decodes the escape sequence at data[i], a backslash, to the
// rune it stands for and its length in bytes. A \u escape of a high
// surrogate takes the low one after it; an unpaired surrogate is
// U+FFFD.
func (d *decoder) escape(i int) (rune, int, error) {
	data := d.data
	if i+1 >= len(data) {
		d.off = len(data)
		return 0, 0, io.ErrUnexpectedEOF
	}
	switch c := data[i+1]; {
	case unescape[c] != 0:
		return rune(unescape[c]), 2, nil
	case c == 'u':
		r, err := d.hex4(i + 2)
		if err != nil {
			return 0, 0, err
		}
		if !utf16.IsSurrogate(r) {
			return r, 6, nil
		}
		if i+7 < len(data) && data[i+6] == '\\' && data[i+7] == 'u' {
			if r2, err := d.hex4(i + 8); err == nil {
				if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
					return pair, 12, nil
				}
			}
		}
		return unicode.ReplacementChar, 6, nil
	default:
		d.off = i + 1
		return 0, 0, d.syntaxError(c, "in string escape code")
	}
}

// hex4 decodes the four hexadecimal digits of a \u escape at data[i:].
func (d *decoder) hex4(i int) (rune, error) {
	var r rune
	for j := i; j < i+4; j++ {
		if j >= len(d.data) {
			d.off = j
			return 0, io.ErrUnexpectedEOF
		}
		c := d.data[j]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.off = j
			return 0, d.syntaxError(c, `in \u hexadecimal character escape`)
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

// fieldIs reports whether a decoded key names the lower-case ASCII
// field name the way encoding/json matches keys: exactly, or equal
// under simple case folding, where the only non-ASCII runes that fold
// to ASCII letters are the long s (to s) and the Kelvin sign (to k).
func fieldIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[j] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		switch {
		case r == 'ſ' && name[j] == 's', r == '\u212a' && name[j] == 'k':
		default:
			return false
		}
		i += n
	}
	return j == len(name)
}
