package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/benchgen"
)

// editBody is a daemon-edit-shaped request as encoding/json marshals
// it: a generated program of the given line count split into 8 files,
// poly, simplify and a session.
func editBody(lines int) []byte {
	all := strings.SplitAfter(benchgen.Generate(benchgen.ParallelCorpus(lines, 11)), "\n")
	req := AnalyzeRequest{Poly: true, Simplify: true, Session: "edit-0"}
	for k := range 8 {
		text := strings.Join(all[k*len(all)/8:(k+1)*len(all)/8], "")
		req.Sources = append(req.Sources, SourceJSON{Path: fmt.Sprintf("edit0/f%d.c", k), Text: text})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// jsonDecode is the reference: what handleAnalyze decoded with before
// the hand-written decoder.
func jsonDecode(body string) (AnalyzeRequest, error) {
	var req AnalyzeRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// decodeSeeds are request bodies at the edges of what encoding/json
// accepts: letter case, repeated keys, nulls, escapes, invalid UTF-8,
// control characters and data after the first value.
var decodeSeeds = []string{
	`{"SOURCES":[{"PATH":"a.c","Text":"int x;"}],"Poly":true,"LaNg":"c"}`,
	"{\"ſession\":\"s\",\"Key\":1}",
	"{\"sesſion\":\"s\",\"preludes\":[{\"path\":\"p.q\",\"text\":\"x\"}]}",
	`{"sources":[{"path":"a.c","text":"t"}]}`,
	`{"poly":true,"poly":false,"uninit":true,"simplify":true,"polyrec":false}`,
	`{"sources":[{"path":"a","text":"x"},{"path":"b","text":"y"},{"path":"c"}],"sources":[{"text":"z"}],"sources":[{},{},{"path":"d"},{}]}`,
	`{"analyses":["const","taint"],"analyses":[null,"fdstate"],"analyses":[]}`,
	`{"sources":[{"path":"a","text":"x"}],"sources":[]}`,
	`{"sources":[{"path":"a","text":"x"}],"sources":null}`,
	`null`,
	` null {"bogus":1}`,
	`nullx`,
	`nul`,
	`{"sources":[null,{"path":"a","text":null}],"lang":null,"poly":null,"session":null,"preludes":null}`,
	`{"analyses":["taint",null]}`,
	`{"session":"é😀𐀀x\ud800A\udc00\ud800"}`,
	`{"session":"\ud800𐀀􏿿\uDFFF\uDBFF"}`,
	`{"session":"\ud800\u12"}`,
	`{"session":"\"\\\/\b\f\n\r\t\u0000\u001f"}`,
	`{"session":"\'"}`,
	`{"session":"\x41"}`,
	`{"session":"\u12G4"}`,
	"{\"session\":\"a\xffb\xc3\"}",
	"{\"sources\":[{\"path\":\"\xed\xa0\x80\",\"text\":\"\xc0\xaf\xef\xbf\xbd\xf4\x90\x80\x80\"}]}",
	"{\"session\":\"\xff\xff\xff\xff\"}",
	"{\"\xff\":1}",
	"{\"session\":\"a\x01b\"}",
	"{\"session\":\"a\tb\"}",
	"{\"session\":\"a\x7fb\"}",
	`{"session":"x"} trailing`,
	`{}{"bogus":1}`,
	`{"session":"x"}]`,
	` {"session":"x"}`,
	"\t\r\n{}",
	``,
	`   `,
	`[]`,
	`"x"`,
	`1`,
	`-`,
	`true`,
	`x`,
	`{"poly":"true"}`,
	`{"poly":1}`,
	`{"poly":tru}`,
	`{"poly":nulll}`,
	`{"lang":true}`,
	`{"sources":{}}`,
	`{"sources":[1]}`,
	`{"sources":["a.c"]}`,
	`{"sources":[{"path":1}]}`,
	`{"sources":[{"path":"a.c","bogus":1}]}`,
	`{"sources":[{"path":"a.c"},]}`,
	`{"sources":[{"path":"a.c"} {"path":"b.c"}]}`,
	`{"sources":[],}`,
	`{,}`,
	`{"a" 1}`,
	`{"poly":true "uninit":true}`,
	`{"session":"x`,
	`{"session":"x\`,
	`{"session":"\u`,
	`{"session"`,
	`{"session":`,
	`{`,
	`{"sources":[`,
	`{"sources":[{`,
	`{"preludes":[{"path":"a.q","text":"t"}],"PRELUDES":[{"TEXT":"u"}]}`,
	`{"analyses":"const"}`,
	`{"lang":"go","sources":[{"path":"a.go","text":"package a\n\nfunc F() {}\n"},{"path":"b.go","text":"package a\n"}]}`,
	`{"sources":[{"path":"m0.c","text":"int f(int *p) { return *p < 1 && p[0] > 0; }\n"}]}`,
}

// FuzzDecodeRequest holds decodeRequest to encoding/json's Decoder
// with DisallowUnknownFields: the same bodies are accepted and
// rejected, and an accepted body decodes to the same request.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add(tc.body)
	}
	for _, s := range decodeSeeds {
		f.Add(s)
	}
	f.Add(string(editBody(200)))
	f.Add(analyzeBody(map[string]string{"prog.c": prog}))
	f.Fuzz(func(t *testing.T, body string) {
		want, wantErr := jsonDecode(body)
		got, err := decodeRequest([]byte(body))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v; encoding/json error %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded\n%#v\nencoding/json\n%#v", body, got, want)
		}
	})
}

// TestDecodeRequestEditBody: a daemon-edit body decodes to what
// encoding/json makes of it.
func TestDecodeRequestEditBody(t *testing.T) {
	body := editBody(10_000)
	want, err := jsonDecode(string(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded request differs from encoding/json's")
	}
}

// TestFoldedKeyRunes: the only non-ASCII runes that simple case folding
// takes to an ASCII letter are the ones fieldIs folds, the long s and
// the Kelvin sign.
func TestFoldedKeyRunes(t *testing.T) {
	var found []rune
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < utf8.RuneSelf {
				found = append(found, r)
				break
			}
		}
	}
	if want := []rune{'\u017f', '\u212a'}; !reflect.DeepEqual(found, want) {
		t.Fatalf("runes folding to ASCII: %q; want %q", found, want)
	}
}

// TestDecodeRequestAllocs: decoding a daemon-edit body, its read buffer
// included, allocates the buffer, one exactly sized copy of each string
// and the growing sources slice, however long the texts are, and no
// more bytes than the body plus the strings (with room for allocation
// size classes).
func TestDecodeRequestAllocs(t *testing.T) {
	// allocs: the body buffer, the decoder (it escapes through
	// decodeArray's element function), 8 paths, 8 texts, the session
	// and the sources slice at 1, 2, 4 and 8 elements.
	const allocs = 2 + 17 + 4
	for _, lines := range []int{10_000, 40_000} {
		body := editBody(lines)
		req, err := jsonDecode(string(body))
		if err != nil {
			t.Fatal(err)
		}
		strs := len(req.Session)
		for _, s := range req.Sources {
			strs += len(s.Path) + len(s.Text)
		}
		decode := func() {
			buf := make([]byte, len(body))
			copy(buf, body)
			if _, err := decodeRequest(buf); err != nil {
				t.Fatal(err)
			}
		}
		if raceEnabled {
			decode()
			continue // the bounds hold for an uninstrumented build only
		}
		if n := testing.AllocsPerRun(10, decode); n > allocs {
			t.Errorf("%d lines: %v allocations per decode; want at most %d", lines, n, allocs)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(len(body)+strs) * 9 / 8; perRun > limit {
			t.Errorf("%d lines: %d bytes per decode; want at most %d (body %d, strings %d, 1/8 for size classes)",
				lines, perRun, limit, len(body), strs)
		}
	}
}

// TestReadBodyCap: a declared length over the cap is errBodyTooLarge,
// a body shorter than its declared length an error, and a streamed
// body or one declared over the exact-size bound is read whole.
func TestReadBodyCap(t *testing.T) {
	over := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader("{}"))
	over.ContentLength = maxRequestBytes + 1
	if _, err := readBody(httptest.NewRecorder(), over); !errors.Is(err, errBodyTooLarge) {
		t.Errorf("declared length over the cap: %v; want errBodyTooLarge", err)
	}
	short := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader("{}"))
	short.ContentLength = 3
	if _, err := readBody(httptest.NewRecorder(), short); err == nil {
		t.Error("body shorter than its declared length: no error")
	}
	streamed := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(`{"session":"s"}`))
	streamed.ContentLength = -1
	if b, err := readBody(httptest.NewRecorder(), streamed); err != nil || string(b) != `{"session":"s"}` {
		t.Errorf("streamed body: %q, %v", b, err)
	}
	big := strings.Repeat(" ", exactBodyBytes+1)
	if b, err := readBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(big))); err != nil || len(b) != len(big) {
		t.Errorf("declared body over the exact-size bound: %d bytes, %v", len(b), err)
	}
}

// BenchmarkDecodeRequest decodes a daemon-edit body, reading it into a
// fresh buffer first as the handler does, against encoding/json's
// Decoder.
func BenchmarkDecodeRequest(b *testing.B) {
	body := editBody(10_000)
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			buf := make([]byte, len(body))
			copy(buf, body)
			if _, err := decodeRequest(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			var req AnalyzeRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
