package benchgen

// Cycle-heavy constraint-system generation.
//
// The C-source generators above exercise the whole pipeline; the solver
// benchmarks need direct control over the *shape* of the atomic
// constraint graph — in particular over ⊑-cycle density, because cycles
// are what the condensed solver collapses (variables in a cycle are
// equal wherever their edge masks overlap, so each strongly-connected
// component solves as one node). CycleSystem builds such graphs
// deterministically: a seeded region whose variables carry constant
// lower bounds, a bounded region whose variables carry constant upper
// bounds, and within each region a configurable mix of ⊑-cycles and
// chains plus random cross edges. Flow only ever runs bounded→seeded,
// so every generated system is satisfiable by construction and the
// benchmarks can assert a clean solve.

import (
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// CycleConfig sizes one synthetic constraint system.
type CycleConfig struct {
	// Vars is the total number of qualifier variables.
	Vars int
	// CycleFrac is the fraction of variables organized into ⊑-cycles;
	// the rest form chains. 0 reproduces the classic chain benchmark.
	CycleFrac float64
	// CycleLen is the length of each cycle (default 8, minimum 2).
	CycleLen int
	// CrossEdges is the number of extra random edges (within a region,
	// or from the bounded region into the seeded one — never the other
	// way, which keeps the system satisfiable).
	CrossEdges int
	// Seeds is the number of constant lower bounds L ⊑ κ planted in the
	// seeded region (default Vars/100, minimum 1).
	Seeds int
	// Bounds is the number of constant upper bounds κ ⊑ L planted in
	// the bounded region (default Vars/100, minimum 1).
	Bounds int
	// MaskedFrac is the fraction of variable-variable edges restricted
	// to a single random lattice component instead of the full mask;
	// masked cycles are the case the condensation must not over-merge.
	MaskedFrac float64
	// StructMasks assigns masks per structure instead of per edge: every
	// edge of one cycle or chain carries the same (possibly single-
	// component) mask. This is the shape multi-analysis systems have —
	// each analysis masks its own constraints to its lattice component,
	// and flow cycles live within one analysis — and it is the shape on
	// which per-class condensation collapses whole cycles.
	StructMasks bool
	// BitSeeds plants single-component seeds and bounds (each picks one
	// random lattice component) instead of random elements. Combined
	// with full-mask edges this is the other multi-analysis shape: the
	// analyses share the program's value-flow edges, and each analysis
	// contributes its own seeds at its own program points. Distinct
	// components reaching a cycle from distinct points are the worst
	// case for a per-edge fixpoint — one propagation wave around the
	// cycle per component — and are exactly what cycle collapse removes.
	BitSeeds bool
	// Seed makes generation deterministic.
	Seed int64
}

// CycleSystem generates a satisfiable constraint system over set and
// returns it together with a deterministic sample of "interface"
// variables (one per cycle or chain head, capped at 64) for Restrict
// benchmarks. Generation is pure: equal configs yield equal systems.
func CycleSystem(set *qual.Set, cfg CycleConfig) (*constraint.System, []constraint.Var) {
	if cfg.Vars < 4 {
		cfg.Vars = 4
	}
	if cfg.CycleLen < 2 {
		cfg.CycleLen = 8
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = max(1, cfg.Vars/100)
	}
	if cfg.Bounds <= 0 {
		cfg.Bounds = max(1, cfg.Vars/100)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sys := constraint.NewSystem(set)
	vars := make([]constraint.Var, cfg.Vars)
	for i := range vars {
		vars[i] = sys.Fresh()
	}
	full := set.FullMask()
	nbits := set.Len()
	mask := func() qual.Elem {
		if nbits > 0 && rng.Float64() < cfg.MaskedFrac {
			return qual.Elem(1) << uint(rng.Intn(nbits))
		}
		return full
	}
	structMask := full
	edge := func(a, b constraint.Var) {
		m := structMask
		if !cfg.StructMasks {
			m = mask()
		}
		sys.AddMasked(constraint.V(a), constraint.V(b), m, constraint.Reason{})
	}

	// The seeded region is the first half, the bounded region the second.
	half := cfg.Vars / 2
	var iface []constraint.Var
	region := func(lo, hi int) {
		n := hi - lo
		cycled := int(float64(n) * cfg.CycleFrac)
		i := lo
		for ; i+cfg.CycleLen <= lo+cycled; i += cfg.CycleLen {
			structMask = mask() // one mask per cycle under StructMasks
			if len(iface) < 64 {
				iface = append(iface, vars[i])
			}
			for k := 0; k < cfg.CycleLen-1; k++ {
				edge(vars[i+k], vars[i+k+1])
			}
			edge(vars[i+cfg.CycleLen-1], vars[i])
		}
		if i < hi {
			if len(iface) < 64 {
				iface = append(iface, vars[i])
			}
		}
		structMask = mask() // one mask per chain under StructMasks
		for ; i+1 < hi; i++ {
			edge(vars[i], vars[i+1])
		}
	}
	region(0, half)
	region(half, cfg.Vars)

	for k := 0; k < cfg.CrossEdges; k++ {
		structMask = mask() // cross edges draw a fresh mask either way
		switch rng.Intn(3) {
		case 0: // within the seeded region
			edge(vars[rng.Intn(half)], vars[rng.Intn(half)])
		case 1: // within the bounded region
			edge(vars[half+rng.Intn(cfg.Vars-half)], vars[half+rng.Intn(cfg.Vars-half)])
		default: // bounded → seeded, never the reverse
			edge(vars[half+rng.Intn(cfg.Vars-half)], vars[rng.Intn(half)])
		}
	}

	for k := 0; k < cfg.Seeds; k++ {
		e := qual.Elem(rng.Uint64()) & full
		if cfg.BitSeeds && nbits > 0 {
			e = qual.Elem(1) << uint(rng.Intn(nbits))
		}
		sys.Add(constraint.C(e), constraint.V(vars[rng.Intn(half)]), constraint.Reason{})
	}
	for k := 0; k < cfg.Bounds; k++ {
		e := qual.Elem(rng.Uint64()) & full
		if cfg.BitSeeds && nbits > 0 {
			e = full &^ (qual.Elem(1) << uint(rng.Intn(nbits)))
		}
		sys.AddMasked(constraint.V(vars[half+rng.Intn(cfg.Vars-half)]), constraint.C(e), mask(), constraint.Reason{})
	}
	return sys, iface
}
