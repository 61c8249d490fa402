package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzAnalyzeRequest posts arbitrary bodies to /v1/analyze on a fresh
// default server: no input may panic the handler or get a 500, and
// every non-200 answer is an {"error": ...} JSON body. Go bodies whose
// config passes driver.Config.Check are skipped, so the fuzzer never
// starts a `go list` process; Go bodies the check rejects (poly,
// uninit, an unknown analysis) are fuzzed like any other.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add(tc.body)
	}
	f.Add(analyzeBody(map[string]string{"prog.c": prog}))
	f.Fuzz(func(t *testing.T, body string) {
		// The probe is the server's own decoder and config, so it sees
		// every setting the server would act on.
		if probe, err := decodeRequest([]byte(body)); err == nil && probe.Lang == "go" && probe.config().Check() == nil {
			t.Skip("the Go front end runs go list")
		}
		w := httptest.NewRecorder()
		New(Config{}).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("status 500: %s", w.Body)
		}
		if w.Code == http.StatusOK {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
		dec.DisallowUnknownFields()
		var e errorJSON
		if err := dec.Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("status %d: body %q is not {\"error\": ...} JSON", w.Code, w.Body)
		}
	})
}
