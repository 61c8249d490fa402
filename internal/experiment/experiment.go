// Package experiment runs the paper's Section 4.4 evaluation end to end:
// generate (or load) a benchmark, parse it ("compile"), run monomorphic
// and polymorphic const inference, and render Table 1, Table 2 and
// Figure 6. Both passes go through the staged internal/driver pipeline;
// the Compile/Mono/Poly columns are the driver's per-stage timings.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/benchgen"
	"repro/internal/constinfer"
	"repro/internal/driver"
	"repro/internal/tables"
)

// Result is one benchmark's measurements: the row data of Tables 1 and 2.
type Result struct {
	Config benchgen.Config
	// Lines is the actual generated line count.
	Lines int
	// CompileTime is the parse time (the paper's "Compile time" column
	// measures the front end).
	CompileTime time.Duration
	// MonoTime and PolyTime are the inference times.
	MonoTime time.Duration
	PolyTime time.Duration
	// Declared, Mono, Poly, Total are the Table 2 counters.
	Declared int
	Mono     int
	Poly     int
	Total    int
	// Reports keep the full classification for drill-down.
	MonoReport *constinfer.Report
	PolyReport *constinfer.Report
}

// Run generates and measures one benchmark. The monomorphic pass runs the
// full pipeline (its Parse timing is the paper's "Compile time" column);
// the polymorphic pass reuses the parsed files, so its cost is pure
// inference.
func Run(cfg benchgen.Config) (*Result, error) {
	src := benchgen.Generate(cfg)
	res := &Result{Config: cfg, Lines: strings.Count(src, "\n")}

	monoRes, err := driver.Run(driver.Config{},
		[]driver.Source{driver.TextSource(cfg.Name+".c", src)})
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", cfg.Name, err)
	}
	if monoRes.Report == nil {
		return nil, fmt.Errorf("experiment %s: parse: %v", cfg.Name, monoRes.Errors()[0].Message)
	}
	mono := monoRes.Report
	if len(mono.Conflicts) > 0 {
		return nil, fmt.Errorf("experiment %s: mono inference found conflicts in a generated (correct) program: %v",
			cfg.Name, mono.Conflicts[0].Error())
	}
	res.CompileTime = monoRes.Timings.Parse
	res.MonoTime = monoRes.Timings.Analysis()

	polyRes, err := driver.RunFiles(driver.Config{Options: constinfer.Options{Poly: true}}, monoRes.Files)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: poly: %w", cfg.Name, err)
	}
	poly := polyRes.Report
	if len(poly.Conflicts) > 0 {
		return nil, fmt.Errorf("experiment %s: poly inference found conflicts: %v",
			cfg.Name, poly.Conflicts[0].Error())
	}
	res.PolyTime = polyRes.Timings.Analysis()

	res.Declared = mono.Declared
	res.Mono = mono.Inferred
	res.Poly = poly.Inferred
	res.Total = mono.Total
	res.MonoReport = mono
	res.PolyReport = poly
	return res, nil
}

// RunSuite measures every benchmark of the paper suite.
func RunSuite() ([]*Result, error) {
	var out []*Result
	for _, cfg := range benchgen.PaperSuite() {
		r, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Table1 renders the benchmark inventory (paper Table 1).
func Table1(results []*Result) string {
	t := tables.New("Name", "Lines", "Description")
	for _, r := range results {
		t.Row(r.Config.Name, r.Lines, r.Config.Description)
	}
	return "Table 1: Benchmarks for const inference\n" + t.String()
}

// Table2 renders the measurement table (paper Table 2).
func Table2(results []*Result) string {
	t := tables.New("Name", "Compile (s)", "Mono (s)", "Poly (s)",
		"Declared", "Mono", "Poly", "Total possible")
	for _, r := range results {
		t.Row(r.Config.Name,
			seconds(r.CompileTime), seconds(r.MonoTime), seconds(r.PolyTime),
			r.Declared, r.Mono, r.Poly, r.Total)
	}
	return "Table 2: Number of inferred possibly-const positions\n" + t.String()
}

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Figure6 renders the stacked percentage chart (paper Figure 6): for each
// benchmark, the fractions of total-possible consts that are Declared,
// additionally found by Mono, additionally found by Poly, and Other.
func Figure6(results []*Result) string {
	var bars []tables.StackedBar
	for _, r := range results {
		total := float64(r.Total)
		if total == 0 {
			total = 1
		}
		declared := float64(r.Declared) / total
		mono := float64(r.Mono-r.Declared) / total
		poly := float64(r.Poly-r.Mono) / total
		other := 1 - declared - mono - poly
		bars = append(bars, tables.StackedBar{
			Label:    r.Config.Name,
			Segments: []float64{declared, mono, poly, other},
		})
	}
	return tables.Figure(
		"Figure 6: Number of inferred consts for benchmarks (fraction of total possible)",
		[]string{"Declared", "Mono", "Poly", "Other"},
		[]rune{'#', '+', '*', '.'},
		bars, 50)
}
