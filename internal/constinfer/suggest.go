package constinfer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cfront"
	"repro/internal/constraint"
)

// Suggestion is one function whose declaration can carry more consts than
// the source does: the paper's desired output, "the text of the original
// C program with some extra const qualifiers inserted" (Section 4.2),
// rendered as the re-declared signature.
type Suggestion struct {
	// Func is the function name.
	Func string
	// Pos locates its definition.
	Pos constraint.Pos
	// Old is the declaration as written.
	Old string
	// New is the declaration with every const-able position declared
	// const.
	New string
	// Added counts the consts inserted.
	Added int
}

// buildSuggestions computes the re-declared signatures for every defined
// function with at least one addable const, sorted by function name;
// Classify attaches the result to the report. A function's positions are
// contiguous in rep.Positions (appendPositions adds them in one call), so
// one walk over the runs of equal Func visits each function once. Old and
// New of every suggestion are substrings of one rendered text.
func (a *Analysis) buildSuggestions(rep *Report) []Suggestion {
	var (
		out  []Suggestion
		offs []int // out[i].Old is text[offs[2i]:offs[2i+1]], New runs to the next offset
		sig  sigCopy
		b    strings.Builder
	)
	ps := rep.Positions
	for lo, hi := 0, 0; lo < len(ps); lo = hi {
		name := ps[lo].Func
		for hi = lo + 1; hi < len(ps) && ps[hi].Func == name; hi++ {
		}
		fi := a.funcs[name]
		if fi == nil || !fi.defined {
			continue
		}
		var fn *cfront.Type
		added := 0
		for _, p := range ps[lo:hi] {
			if p.Declared || (p.Verdict != Either && p.Verdict != MustConst) {
				continue
			}
			if fn == nil {
				fn = sig.reset(fi.decl.Type)
			}
			sig.ownPath(p.Index, p.Depth)
			if markConst(fn, p.Index, p.Depth) {
				added++
			}
		}
		if added == 0 {
			continue
		}
		offs = append(offs, b.Len())
		cfront.WriteTypeDecl(&b, name, fi.decl.Type)
		offs = append(offs, b.Len())
		cfront.WriteTypeDecl(&b, name, fn)
		out = append(out, Suggestion{Func: name, Pos: filePos(fi.file, fi.decl.Pos), Added: added})
	}
	text := b.String()
	offs = append(offs, len(text))
	for i := range out {
		out[i].Old = text[offs[2*i]:offs[2*i+1]]
		out[i].New = text[offs[2*i+1]:offs[2*i+2]]
	}
	slices.SortFunc(out, func(x, y Suggestion) int { return strings.Compare(x.Func, y.Func) })
	return out
}

// sigCopy is the copy of one declared function type that buildSuggestions
// marks consts in. The function node and its Params slice are copied per
// function; a type node below them is copied only when a const is about
// to be written at or under it, so the declaration stays untouched
// without cloning the whole type. The storage is reused from function to
// function.
type sigCopy struct {
	fn     cfront.Type
	params []cfront.Param
	nodes  []*cfront.Type // nodes[:used] are the current function's copies
	used   int
}

// reset starts a copy of decl and returns its function node.
func (s *sigCopy) reset(decl *cfront.Type) *cfront.Type {
	s.fn = *decl
	s.params = append(s.params[:0], decl.Params...)
	s.fn.Params = s.params
	s.used = 0
	return &s.fn
}

// ownPath replaces, in the copy, every type node that markConst(&s.fn,
// index, depth) may write or walk through with one of the copy's own:
// the parameter (or result) type, depth further pointer levels, and the
// pointee whose const flag is set.
func (s *sigCopy) ownPath(index, depth int) {
	slot := &s.fn.Ret
	if index >= 0 {
		if index >= len(s.fn.Params) {
			return
		}
		slot = &s.fn.Params[index].Type
	}
	for i := 0; i <= depth+1 && *slot != nil; i++ {
		*slot = s.own(*slot)
		slot = &(*slot).Elem
	}
}

// own returns t if it is one of the current function's copies, else a
// copy of it.
func (s *sigCopy) own(t *cfront.Type) *cfront.Type {
	for _, n := range s.nodes[:s.used] {
		if n == t {
			return t
		}
	}
	if s.used == len(s.nodes) {
		s.nodes = append(s.nodes, new(cfront.Type))
	}
	n := s.nodes[s.used]
	s.used++
	*n = *t
	return n
}

// markConst sets, in place, the const flag at the pointer level `depth`
// of parameter `index` (or the result for index < 0) of a function type.
// Depth 0 is the immediate pointee — `char *s` becomes `const char *s`.
func markConst(fn *cfront.Type, index, depth int) bool {
	var t *cfront.Type
	if index < 0 {
		t = fn.Ret
	} else {
		if index >= len(fn.Params) {
			return false
		}
		t = fn.Params[index].Type
	}
	// Walk down `depth` pointer levels; the const attaches to the pointee
	// reached from the final pointer.
	for i := 0; i < depth; i++ {
		if t == nil || (t.Kind != cfront.TPointer && t.Kind != cfront.TArray) {
			return false
		}
		t = t.Elem
	}
	if t == nil || (t.Kind != cfront.TPointer && t.Kind != cfront.TArray) || t.Elem == nil {
		return false
	}
	if t.Elem.Quals.Const {
		return false
	}
	t.Elem.Quals.Const = true
	return true
}

// SchemeString renders a function's inferred polymorphic qualifier type:
// the signature over qualifier variables, the quantifier prefix, and the
// constraint set projected onto the signature's variables — the paper's
// Section 6 presentation problem ("in practice these constraint systems
// can be large and difficult to interpret; simplifying these constrained
// types for presentation is an open research problem"), answered with the
// Restrict projection. Returns false if the function has no scheme
// (monomorphic run, or not a defined function).
func (a *Analysis) SchemeString(name string) (string, bool) {
	fi := a.funcs[name]
	if fi == nil || fi.scheme == nil {
		return "", false
	}
	iface := collectVars(fi.sig, nil)
	restricted := constraint.Restrict(a.set, fi.scheme.proj.Cons, iface)

	var b strings.Builder
	quantified := make([]string, 0, len(iface))
	for _, v := range iface {
		if _, ok := slices.BinarySearch(fi.scheme.qvars, v); ok {
			quantified = append(quantified, fmt.Sprintf("κ%d", int(v)))
		}
	}
	if len(quantified) > 0 {
		b.WriteString("∀" + strings.Join(quantified, ",") + ". ")
	}
	b.WriteString(name + " : " + fi.sig.String())
	if len(restricted) > 0 {
		var cs []string
		for _, c := range restricted {
			cs = append(cs, c.L.Format(a.set)+" ⊑ "+c.R.Format(a.set))
		}
		sort.Strings(cs)
		b.WriteString(" \\ {" + strings.Join(cs, ", ") + "}")
	}
	return b.String(), true
}
