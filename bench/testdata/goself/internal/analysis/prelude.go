// Prelude files declare the library-level seeds and sinks of an
// analysis: qualifier signatures for functions whose bodies the checker
// never sees. The grammar is line-oriented:
//
//	# comment to end of line
//	analysis <name>                 # exactly one, before any entry
//	fn(ann, _, ...) [-> ann]        # one entry per line
//
// Each parameter position carries an annotation name from the target
// analysis's vocabulary or the wildcard "_" (unconstrained); a trailing
// "..." allows extra, unconstrained arguments. The optional "-> ann"
// annotates the result. For the taint analysis, for example:
//
//	analysis taint
//	getenv(_) -> tainted            # environment data is untrusted
//	printf(untainted, ...)          # the format argument is a sink
//
// Annotation names are validated against the registered analysis at
// parse time, so a typo fails at startup rather than silently checking
// nothing.
//
// Function names may be dotted for the Go front end: "os.Getenv" names
// a package function, "sql.DB.Query" a method (package short name,
// receiver type with any pointer stripped, method name). A method
// entry may annotate its receiver with a "recv:" prefix in the first
// parameter position:
//
//	analysis fdstate
//	os.File.Close(recv: closes)     # closing marks the receiver
//	os.File.Read(recv: live, _)     # reading demands it still open
//
// The remaining positions then count the declared (non-receiver)
// parameters, exactly as for plain functions.
package analysis

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// Wildcard is the prelude spelling for "no annotation here".
const Wildcard = "_"

// Entry is one library-function signature from a prelude file.
type Entry struct {
	// Func is the function name.
	Func string
	// Params holds one annotation name (or Wildcard) per declared
	// parameter position.
	Params []string
	// Variadic allows extra arguments beyond Params, unconstrained.
	Variadic bool
	// Recv is the receiver annotation of a Go method entry ("recv: ann"
	// in the first parameter position), or empty.
	Recv string
	// Result is the result annotation, or empty.
	Result string
	// Pos is "path:line" of the entry, for provenance in diagnostics.
	Pos string
}

// Param returns the annotation for 0-based argument i; extra variadic
// and out-of-range arguments are unconstrained.
func (e *Entry) Param(i int) string {
	if i >= 0 && i < len(e.Params) {
		return e.Params[i]
	}
	return ""
}

// Prelude is a parsed prelude file, bound to one analysis.
type Prelude struct {
	// Analysis is the target analysis name from the header line.
	Analysis string
	// Path is the file path the prelude was parsed from (diagnostics
	// and cache keys; merged preludes join their paths with ",").
	Path string
	// Entries maps function name to its signature.
	Entries map[string]*Entry
	// Funcs lists the function names in declaration order.
	Funcs []string
	// TextHash fingerprints the raw prelude text for cache keys.
	TextHash [sha256.Size]byte
}

// Merge combines two preludes for the same analysis; duplicate function
// entries are an error.
func (p *Prelude) Merge(q *Prelude) (*Prelude, error) {
	if p.Analysis != q.Analysis {
		return nil, fmt.Errorf("analysis: cannot merge preludes for %q and %q", p.Analysis, q.Analysis)
	}
	m := &Prelude{
		Analysis: p.Analysis,
		Path:     p.Path + "," + q.Path,
		Entries:  make(map[string]*Entry, len(p.Entries)+len(q.Entries)),
		TextHash: sha256.Sum256(append(p.TextHash[:], q.TextHash[:]...)),
	}
	for _, fn := range p.Funcs {
		m.Entries[fn] = p.Entries[fn]
		m.Funcs = append(m.Funcs, fn)
	}
	for _, fn := range q.Funcs {
		if prev, dup := m.Entries[fn]; dup {
			return nil, fmt.Errorf("%s: duplicate prelude entry for %q (previous at %s)", q.Entries[fn].Pos, fn, prev.Pos)
		}
		m.Entries[fn] = q.Entries[fn]
		m.Funcs = append(m.Funcs, fn)
	}
	return m, nil
}

// ParsePrelude parses prelude text read from path. Errors carry
// "path:line:" prefixes.
func ParsePrelude(path, text string) (*Prelude, error) {
	p := &Prelude{
		Path:     path,
		Entries:  make(map[string]*Entry),
		TextHash: sha256.Sum256([]byte(text)),
	}
	var target *Analysis
	for lineno, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		pos := fmt.Sprintf("%s:%d", path, lineno+1)
		if name, ok := cutKeyword(line, "analysis"); ok {
			if target != nil {
				return nil, fmt.Errorf("%s: duplicate analysis header (already %q)", pos, p.Analysis)
			}
			if !isIdent(name) {
				return nil, fmt.Errorf("%s: malformed analysis header %q", pos, line)
			}
			a, known := Lookup(name)
			if !known {
				return nil, fmt.Errorf("%s: unknown analysis %q (registered: %s)", pos, name, strings.Join(Names(), ", "))
			}
			target, p.Analysis = a, name
			continue
		}
		if target == nil {
			return nil, fmt.Errorf(`%s: missing "analysis <name>" header before first entry`, pos)
		}
		ent, err := parseEntry(line, pos, target)
		if err != nil {
			return nil, err
		}
		if prev, dup := p.Entries[ent.Func]; dup {
			return nil, fmt.Errorf("%s: duplicate entry for %q (previous at %s)", pos, ent.Func, prev.Pos)
		}
		p.Entries[ent.Func] = ent
		p.Funcs = append(p.Funcs, ent.Func)
	}
	if target == nil {
		return nil, fmt.Errorf(`%s: empty prelude: missing "analysis <name>" header`, path)
	}
	return p, nil
}

// cutKeyword splits "keyword rest" lines, requiring whitespace after the
// keyword.
func cutKeyword(line, kw string) (rest string, ok bool) {
	if !strings.HasPrefix(line, kw) {
		return "", false
	}
	rest = line[len(kw):]
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// parseEntry parses one `fn(ann, _, ...) [-> ann]` line.
func parseEntry(line, pos string, target *Analysis) (*Entry, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 {
		return nil, fmt.Errorf("%s: malformed entry %q (expected fn(...))", pos, line)
	}
	fn := strings.TrimSpace(line[:open])
	if !isFuncName(fn) {
		return nil, fmt.Errorf("%s: malformed function name %q", pos, fn)
	}
	closeIdx := strings.IndexByte(line, ')')
	if closeIdx < open {
		return nil, fmt.Errorf("%s: entry for %q is missing ')'", pos, fn)
	}
	ent := &Entry{Func: fn, Pos: pos}
	args := strings.TrimSpace(line[open+1 : closeIdx])
	if args != "" {
		fields := strings.Split(args, ",")
		for i, field := range fields {
			ann := strings.TrimSpace(field)
			if ann == "..." {
				if i != len(fields)-1 {
					return nil, fmt.Errorf(`%s: "..." must be the last parameter of %q`, pos, fn)
				}
				ent.Variadic = true
				continue
			}
			if rest, ok := strings.CutPrefix(ann, "recv:"); ok {
				if i != 0 {
					return nil, fmt.Errorf(`%s: "recv:" must be the first parameter of %q`, pos, fn)
				}
				ann = strings.TrimSpace(rest)
				if err := checkAnn(ann, target, pos, fn); err != nil {
					return nil, err
				}
				ent.Recv = ann
				continue
			}
			if err := checkAnn(ann, target, pos, fn); err != nil {
				return nil, err
			}
			ent.Params = append(ent.Params, ann)
		}
	}
	tail := strings.TrimSpace(line[closeIdx+1:])
	if tail != "" {
		res, ok := strings.CutPrefix(tail, "->")
		if !ok {
			return nil, fmt.Errorf("%s: unexpected trailing %q after entry for %q", pos, tail, fn)
		}
		res = strings.TrimSpace(res)
		if err := checkAnn(res, target, pos, fn); err != nil {
			return nil, err
		}
		ent.Result = res
	}
	return ent, nil
}

// checkAnn validates one annotation word against the analysis vocabulary.
func checkAnn(ann string, target *Analysis, pos, fn string) error {
	if ann == Wildcard {
		return nil
	}
	if !isIdent(ann) {
		return fmt.Errorf("%s: malformed annotation %q in entry for %q", pos, ann, fn)
	}
	if _, ok := target.Annotations[ann]; !ok {
		return fmt.Errorf("%s: unknown annotation %q in entry for %q (analysis %q accepts: %s)",
			pos, ann, fn, target.Name, strings.Join(target.AnnotationNames(), ", "))
	}
	return nil
}

// isFuncName accepts prelude function names: C identifiers plus the
// dotted spellings the Go front end looks up ("os.Getenv" for package
// functions, "sql.DB.Query" for methods). Dots must separate non-empty
// identifier segments. Annotation names stay plain identifiers.
func isFuncName(s string) bool {
	if s == "" {
		return false
	}
	for _, seg := range strings.Split(s, ".") {
		if !isIdent(seg) {
			return false
		}
	}
	return true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
