package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/driver"
	_ "repro/internal/gofront" // registers the "go" front end
)

// TestConcurrentGoRequests: two clients each post four distinct Go
// fd-state requests at once, so the runs share the process-wide
// standard-library importer concurrently (CI runs this package under
// -race). Every response must be what a local driver.Run of the same
// sources reports, timings aside.
func TestConcurrentGoRequests(t *testing.T) {
	dirty, err := os.ReadFile("../../examples/go-fdstate/dirty/main.go")
	if err != nil {
		t.Fatal(err)
	}
	prelude, err := os.ReadFile("../../examples/go-fdstate/fd.q")
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 2, 4
	pre := driver.PreludeFile{Path: "fd.q", Text: string(prelude)}
	srcs := make([]driver.Source, clients*perClient)
	bodies := make([]string, len(srcs))
	for i := range srcs {
		// A unique trailing comment makes every request a cache miss.
		srcs[i] = driver.Source{Path: "main.go", Text: string(dirty) + fmt.Sprintf("\n// request %d\n", i)}
		b, err := json.Marshal(AnalyzeRequest{
			Lang:     "go",
			Sources:  []SourceJSON{{Path: srcs[i].Path, Text: srcs[i].Text}},
			Analyses: []string{"fdstate"},
			Preludes: []PreludeJSON{{Path: pre.Path, Text: pre.Text}},
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(b)
	}

	// The requests go first, so they also race to load the standard
	// library into a cold importer when this test runs alone.
	srv := New(Config{MaxConcurrent: clients})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	got := make([]string, len(bodies))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * perClient; i < (c+1)*perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
					t.Errorf("request %d: status %d, X-Cache %q, read error %v; want 200 miss", i, resp.StatusCode, resp.Header.Get("X-Cache"), err)
					continue
				}
				got[i] = string(data)
			}
		}(c)
	}
	wg.Wait()
	if m := srv.Snapshot(); m.Analyses != uint64(len(bodies)) || m.Failures != 0 {
		t.Fatalf("metrics = %+v; want %d analyses, 0 failures", m, len(bodies))
	}

	cfg := driver.Config{Lang: "go", Analyses: []string{"fdstate"}, Preludes: []driver.PreludeFile{pre}}
	for i, src := range srcs {
		res, err := driver.Run(cfg, []driver.Source{src})
		if err != nil {
			t.Fatal(err)
		}
		local, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if stripMS(got[i]) != stripMS(string(local)+"\n") {
			t.Errorf("request %d: server report differs from local driver:\n%s\n---\n%s", i, got[i], local)
		}
	}
}
