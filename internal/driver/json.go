package driver

import (
	"math"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The JSON report schema is stable output for tooling: the key names,
// their order, the two-space indentation and the string escaping are
// part of the contract. (*Result).JSON writes it by hand into one buffer
// sized from the report; json_ref_test.go keeps an encoding/json
// rendering over mirror structs as the reference it must match byte for
// byte. The schema, in order (? marks keys left out when their value is
// empty):
//
//	files                 []string: the parsed C units, else the front
//	                      end's file names; null for a nil list
//	lang?                 the front end, only when it is not C
//	mode                  "monomorphic" | "polymorphic"
//	analyses              []string
//	summary?              functions, sccs, total_positions,
//	                      declared_const, inferrable_const, never_const,
//	                      constraints, vars, conflicts
//	positions?            [{func, param?, index, depth, declared, verdict, pos}]
//	suggestions?          [{func, pos, old, new, added}]
//	diagnostics           [{pos?, severity, stage, code, analysis?,
//	                      message, flow?: [{pos?, note}]}], [] when none
//	timings               load_ms … eval_ms, analysis_ms
//	solver?               vars, constraints
//
// summary and solver are present exactly when the run reached Classify.

// Mode names the inference mode of a config.
func (c Config) Mode() string {
	if c.Options.Poly {
		return "polymorphic"
	}
	return "monomorphic"
}

// JSON renders the report and diagnostics as indented, machine-readable
// JSON with a stable schema. The error is always nil.
func (r *Result) JSON() ([]byte, error) {
	w := jsonWriter{buf: make([]byte, 0, r.jsonSize())}
	w.open('{')
	w.key("files")
	w.files(r)
	if lang := r.Config.Lang; lang != "" && lang != "c" {
		w.key("lang")
		w.str(lang)
	}
	w.key("mode")
	w.str(r.Config.Mode())
	w.key("analyses")
	w.strs(r.Config.AnalysisNames())
	if rep := r.Report; rep != nil {
		w.key("summary")
		w.open('{')
		w.intMember("functions", rep.Functions)
		w.intMember("sccs", rep.SCCs)
		w.intMember("total_positions", rep.Total)
		w.intMember("declared_const", rep.Declared)
		w.intMember("inferrable_const", rep.Inferred)
		w.intMember("never_const", rep.Total-rep.Inferred)
		w.intMember("constraints", rep.Constraints)
		w.intMember("vars", rep.Vars)
		w.intMember("conflicts", len(rep.Conflicts))
		w.close('}')
		if len(rep.Positions) > 0 {
			w.key("positions")
			w.open('[')
			for _, p := range rep.Positions {
				w.elem()
				w.open('{')
				w.strMember("func", p.Func)
				if p.Param != "" {
					w.strMember("param", p.Param)
				}
				w.intMember("index", p.Index)
				w.intMember("depth", p.Depth)
				w.key("declared")
				w.buf = strconv.AppendBool(w.buf, p.Declared)
				w.strMember("verdict", p.Verdict.String())
				w.key("pos")
				w.pos(p.Pos.File, p.Pos.Line, p.Pos.Col)
				w.close('}')
			}
			w.close(']')
		}
		if len(rep.Suggested) > 0 {
			w.key("suggestions")
			w.open('[')
			for _, s := range rep.Suggested {
				w.elem()
				w.open('{')
				w.strMember("func", s.Func)
				w.key("pos")
				w.pos(s.Pos.File, s.Pos.Line, s.Pos.Col)
				w.strMember("old", s.Old)
				w.strMember("new", s.New)
				w.intMember("added", s.Added)
				w.close('}')
			}
			w.close(']')
		}
	}
	w.key("diagnostics")
	w.open('[')
	for _, d := range r.Diagnostics {
		w.elem()
		w.open('{')
		if d.Pos != "" {
			w.strMember("pos", d.Pos)
		}
		w.strMember("severity", d.Severity.String())
		w.strMember("stage", d.Stage.String())
		w.strMember("code", d.Code)
		if d.Analysis != "" {
			w.strMember("analysis", d.Analysis)
		}
		w.strMember("message", d.Message)
		if len(d.Flow) > 0 {
			w.key("flow")
			w.open('[')
			for _, f := range d.Flow {
				w.elem()
				w.open('{')
				if f.Pos != "" {
					w.strMember("pos", f.Pos)
				}
				w.strMember("note", f.Note)
				w.close('}')
			}
			w.close(']')
		}
		w.close('}')
	}
	w.close(']')
	w.key("timings")
	w.open('{')
	for _, s := range stages {
		w.msMember(s.key, *s.field(&r.Timings))
	}
	// analysis_ms is Timings.Analysis — the paper's Mono/Poly
	// analysis-time column, precomputed so the experiment harness and
	// the server share one schema.
	w.msMember("analysis_ms", r.Timings.Analysis())
	w.close('}')
	if r.Report != nil { // the Solve stage ran
		w.key("solver")
		w.open('{')
		w.intMember("vars", r.Solver.Vars)
		w.intMember("constraints", r.Solver.Constraints)
		w.close('}')
	}
	w.close('}')
	return w.buf, nil
}

// jsonSize bounds the length of r's report from above, unless strings
// need escaping: the fixed text of every object plus the lengths of its
// strings and numbers.
func (r *Result) jsonSize() int {
	n := 1536 // the top-level keys, summary, timings and solver
	named := false
	for _, f := range r.Files {
		if f != nil {
			n += 8 + len(f.Name)
			named = true
		}
	}
	if !named && r.Program != nil {
		for _, name := range r.Program.FileNames() {
			n += 8 + len(name)
		}
	}
	for _, a := range r.Config.Analyses {
		n += 8 + len(a)
	}
	if rep := r.Report; rep != nil {
		for i := range rep.Positions {
			p := &rep.Positions[i]
			n += 140 + len(p.Func) + len(p.Param) + len(p.Pos.File) +
				digits(p.Index) + digits(p.Depth) + digits(int(p.Pos.Line)) + digits(int(p.Pos.Col))
			if p.Param != "" {
				n += 19
			}
		}
		for i := range rep.Suggested {
			s := &rep.Suggested[i]
			n += 104 + len(s.Func) + len(s.Pos.File) + len(s.Old) + len(s.New) +
				digits(int(s.Pos.Line)) + digits(int(s.Pos.Col)) + digits(s.Added)
		}
	}
	for _, d := range r.Diagnostics {
		n += 180 + len(d.Pos) + len(d.Code) + len(d.Analysis) + len(d.Message)
		for _, f := range d.Flow {
			n += 64 + len(f.Pos) + len(f.Note)
		}
	}
	return n
}

// digits is the length of n in decimal.
func digits(n int) int {
	d := 1
	if n < 0 {
		d++
	}
	for n >= 10 || n <= -10 {
		n /= 10
		d++
	}
	return d
}

// jsonWriter appends indented JSON to buf in the layout of
// json.MarshalIndent(v, "", "  "): one member or element per line, and
// "[]" or "{}" for an empty array or object.
type jsonWriter struct {
	buf   []byte
	depth int
	// first is set while the innermost open array or object has no
	// member or element yet.
	first bool
}

func (w *jsonWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.first = false
}

// elem starts an array element.
func (w *jsonWriter) elem() {
	if !w.first {
		w.buf = append(w.buf, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member; k needs no escaping.
func (w *jsonWriter) key(k string) {
	w.elem()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':', ' ')
}

func (w *jsonWriter) newline() {
	w.buf = append(w.buf, '\n')
	for range w.depth {
		w.buf = append(w.buf, ' ', ' ')
	}
}

func (w *jsonWriter) str(s string) { w.buf = obs.AppendJSONString(w.buf, s) }

func (w *jsonWriter) strMember(k, s string) {
	w.key(k)
	w.str(s)
}

func (w *jsonWriter) intMember(k string, n int) {
	w.key(k)
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
}

// msMember writes d in milliseconds.
func (w *jsonWriter) msMember(k string, d time.Duration) {
	w.key(k)
	w.buf = appendFloat(w.buf, d.Seconds()*1000)
}

// strs writes a string array, null for a nil slice.
func (w *jsonWriter) strs(ss []string) {
	if ss == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.open('[')
	for _, s := range ss {
		w.elem()
		w.str(s)
	}
	w.close(']')
}

// files writes the names of the parsed C units, else the front end's
// file names, else null.
func (w *jsonWriter) files(r *Result) {
	named := false
	for _, f := range r.Files {
		if f == nil {
			continue
		}
		if !named {
			w.open('[')
			named = true
		}
		w.elem()
		w.str(f.Name)
	}
	switch {
	case named:
		w.close(']')
	case r.Program != nil:
		w.strs(r.Program.FileNames())
	default:
		w.strs(nil)
	}
}

// pos writes a report position as "file:line:col", or "line:col"
// without a file. Unlike constraint.Pos.String, it keeps a zero line or
// column (a Go position without a column), as the report always has.
func (w *jsonWriter) pos(file string, line, col int32) {
	if file != "" {
		// The closing quote becomes the separator: the string goes on.
		w.buf = obs.AppendJSONString(w.buf, file)
		w.buf[len(w.buf)-1] = ':'
	} else {
		w.buf = append(w.buf, '"')
	}
	w.buf = strconv.AppendInt(w.buf, int64(line), 10)
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, int64(col), 10)
	w.buf = append(w.buf, '"')
}

// appendFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 on, with
// a two-digit negative exponent shortened ("1e-07" → "1e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
