package driver_test

import (
	"encoding/json"
	"testing"

	"repro/internal/driver"
	_ "repro/internal/gofront"
)

// TestReportSolverBlock: the report's solver block counts the same
// system as its summary, for a C run and a Go run.
func TestReportSolverBlock(t *testing.T) {
	for _, c := range []struct {
		lang string
		src  driver.Source
	}{
		{"c", driver.TextSource("demo.c", "int get(int *p) { return *p; }\nvoid set(char *p) { *p = 0; }\n")},
		{"go", driver.TextSource("demo.go", "package demo\n\nfunc Get(p *int) int { return *p }\n\nfunc Set(p *int) { *p = 0 }\n")},
	} {
		res, err := driver.Run(driver.Config{Lang: c.lang}, []driver.Source{c.src})
		if err != nil {
			t.Fatalf("%s: %v", c.lang, err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatalf("%s: %v", c.lang, err)
		}
		var rep struct {
			Summary *struct{ Vars, Constraints int }
			Solver  *struct{ Vars, Constraints int }
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", c.lang, err)
		}
		if rep.Summary == nil || rep.Solver == nil || rep.Summary.Vars == 0 {
			t.Fatalf("%s: want a summary and a solver block over a non-empty system:\n%s", c.lang, data)
		}
		if *rep.Solver != *rep.Summary {
			t.Errorf("%s: solver block %+v, summary counts %+v", c.lang, *rep.Solver, *rep.Summary)
		}
	}
}
