package constinfer

import (
	"fmt"
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
	Pos cfront.Pos
	// Old is the declaration as written.
	Old string
	// New is the declaration with every const-able position declared
	// const.
	New string
	// Added counts the consts inserted.
	Added int
}

// buildSuggestions computes the re-declared signatures for every defined
// function with at least one addable const; solve attaches the result to
// the report.
func (a *Analysis) buildSuggestions(rep *Report) []Suggestion {
	// Group addable positions by function.
	addable := map[string][]PositionResult{}
	for _, p := range rep.Positions {
		if !p.Declared && (p.Verdict == Either || p.Verdict == MustConst) {
			addable[p.Func] = append(addable[p.Func], p)
		}
	}
	var out []Suggestion
	for name, ps := range addable {
		fi := a.funcs[name]
		if fi == nil || !fi.defined {
			continue
		}
		clone := fi.decl.Type.Clone()
		added := 0
		for _, p := range ps {
			if markConst(clone, p.Index, p.Depth) {
				added++
			}
		}
		if added == 0 {
			continue
		}
		out = append(out, Suggestion{
			Func:  name,
			Pos:   fi.decl.Pos,
			Old:   cfront.TypeDecl(name, fi.decl.Type),
			New:   cfront.TypeDecl(name, clone),
			Added: added,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}

// markConst sets the const flag at the pointer level `depth` of parameter
// `index` (or the result for index < 0) of a cloned function type. Depth
// 0 is the immediate pointee — `char *s` becomes `const char *s`.
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
	iface := collectVars(fi.sig, nil, map[*RType]bool{})
	restricted := constraint.Restrict(a.set, fi.scheme.cons, iface)

	var b strings.Builder
	quantified := make([]string, 0, len(iface))
	for _, v := range iface {
		if fi.scheme.qvars[v] {
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
