package constinfer

import (
	"repro/internal/cfront"
	"repro/internal/constraint"
)

// newReference returns an analysis whose polymorphic schemes keep the
// whole constraint fragment of their component, quantified over every
// unpinned variable of the component and replayed in full at each
// instantiation: generalization before Section 6's projection. It is
// the test-only reference that projected schemes are checked against,
// verdict by verdict.
func newReference(files []*cfront.File, opts Options) *Analysis {
	a := NewAnalysis(files, opts)
	a.generalize = func(scc *sccInfo) {
		proj := &constraint.Projection{Cons: fragment(a.sys, scc.sigCons, scc.bodyCons)}
		qvars := unpinnedVars(a, scc.sigVars, scc.bodyVars)
		for _, fi := range scc.funcs {
			fi.scheme = &scheme{sig: fi.sig, qvars: qvars, proj: proj}
		}
	}
	return a
}

// analyzeReference runs the reference analysis over files.
func analyzeReference(files []*cfront.File, opts Options) *Report {
	rep, _ := newReference(files, opts).Run()
	return rep
}

// fragment copies the constraints of the half-open ranges, in order.
func fragment(sys *constraint.System, rgs ...[2]int) []constraint.Constraint {
	var out []constraint.Constraint
	for _, rg := range rgs {
		out = append(out, sys.Slice(rg[0], rg[1])...)
	}
	return out
}

// unpinnedVars collects the unpinned variables of the half-open ranges,
// which are ascending and disjoint, in increasing order.
func unpinnedVars(a *Analysis, rgs ...[2]int) []constraint.Var {
	var out []constraint.Var
	for _, rg := range rgs {
		for v := rg[0]; v < rg[1]; v++ {
			if !a.tr.pinned(constraint.Var(v)) {
				out = append(out, constraint.Var(v))
			}
		}
	}
	return out
}
