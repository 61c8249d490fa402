package constinfer

// Fragment spans for the delta re-solve engine.
//
// ConstrainContext lays the constraint list out in contiguous brackets:
// the prepare region (global pinning, library signatures, prelude
// seeds), one signature fragment per SCC, one merged body fragment per
// SCC, and the global-initializer region at the end. FragmentSpans
// labels those brackets as constraint.FragmentSpan values for
// constraint.Session.
//
// Each span is keyed by a content hash of its constraints — terms,
// masks, and provenance, so variable ids are part of the address. That
// makes the Session contract ("same key ⇒ byte-identical content,
// variable ids included") hold by construction: an edited function
// changes its own fragment's key, and because later fragments allocate
// their variables after it, any shift in variable numbering changes
// their keys too (suffix invalidation). An append-or-edit-at-the-end
// workload — the -watch loop's common case — therefore reuses every
// fragment before the edit.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/constraint"
)

// SolveSession is the Solve stage routed through a retained delta
// session: when this run's mode brackets fragments, the session diffs
// them against its previous call and re-solves only the dirty region
// (or falls back to a cold solve — the result is identical either
// way). A nil session, or a mode without fragment spans, solves cold.
func (a *Analysis) SolveSession(ctx context.Context, ss *constraint.Session) []*constraint.Unsat {
	if ss == nil {
		return a.sys.SolveContext(ctx)
	}
	spans := a.FragmentSpans()
	if spans == nil {
		return a.sys.SolveContext(ctx)
	}
	return ss.SolveContext(ctx, a.sys, spans)
}

// FragmentSpans labels the constraint list of the last Constrain as
// content-addressed fragments, or nil when the mode does not bracket
// fragments (polymorphic recursion re-analyzes bodies iteratively).
// Valid after Constrain and before any further constraint generation.
func (a *Analysis) FragmentSpans() []constraint.FragmentSpan {
	if a.opts.PolyRec || !a.prepared {
		return nil
	}
	all := a.sys.Constraints()
	var spans []constraint.FragmentSpan
	at := 0
	cut := func(tag string, end int) {
		spans = append(spans, constraint.FragmentSpan{
			Key:   contentKey(tag, all[at:end]),
			Start: at,
			End:   end,
		})
		at = end
	}
	if len(a.sccs) > 0 {
		cut("pre", a.sccs[0].sigCons[0])
		for _, scc := range a.sccs {
			cut("sig", scc.sigCons[1])
		}
		for _, scc := range a.sccs {
			cut("body", scc.bodyCons[1])
		}
	}
	cut("glob", len(all))
	return spans
}

// FragmentKey hashes one fragment's constraints into a span key. It is
// exported for other front ends (internal/gofront): every engine that
// brackets fragments for constraint.Session must satisfy the same "same
// key ⇒ byte-identical content, variable ids included" contract, so
// they all share one hash.
func FragmentKey(tag string, cons []constraint.Constraint) string {
	return contentKey(tag, cons)
}

// contentKey hashes one fragment's constraints into its span key.
func contentKey(tag string, cons []constraint.Constraint) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	term := func(t constraint.Term) {
		if t.IsVar() {
			word(1)
			word(uint64(t.Var()))
		} else {
			word(0)
			word(uint64(t.Const()))
		}
	}
	for i := range cons {
		c := &cons[i]
		term(c.L)
		term(c.R)
		word(uint64(c.Mask))
		word(uint64(len(c.Why.Pos)))
		h.Write([]byte(c.Why.Pos))
		h.Write([]byte(c.Why.Msg))
	}
	sum := h.Sum(nil)
	return fmt.Sprintf("%s:%x", tag, sum[:12])
}
