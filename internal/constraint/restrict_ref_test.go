package constraint

import (
	"slices"
	"sort"

	"repro/internal/qual"
)

// refRestrict is restrict as it was before the projection workspace: a
// map from variable to local id and fresh scratch slices and CSRs per
// call. It is the reference that TestProjectMatchesReference and
// FuzzProjectReference hold restrict to, output for output: the
// projected constraints, their witness spans and the witnesses.
func (s *System) refRestrict(rgs [][2]int, iface []Var, loops bool) (out []Constraint, span, wit []int32) {
	full := s.set.FullMask()
	top := s.set.Top()

	// Local dense ids: interface variables first (deduplicated), then
	// every other variable in first-occurrence order, so a node is an
	// interface variable iff its id is below nIface.
	n := 0
	for _, rg := range rgs {
		n += rg[1] - rg[0]
	}
	id := make(map[Var]int32, 2*len(iface))
	locals := make([]Var, 0, len(iface)+2*n)
	lid := func(v Var) int32 {
		i, ok := id[v]
		if !ok {
			i = int32(len(locals))
			id[v] = i
			locals = append(locals, v)
		}
		return i
	}
	for _, v := range iface {
		lid(v)
	}
	nIface := int32(len(locals))
	var eFrom, eTo, eCon []int32
	var eMask []qual.Elem
	for _, rg := range rgs {
		for i := rg[0]; i < rg[1]; i++ {
			switch c := s.rec(i); {
			case c.l.isVar && c.r.isVar:
				u, v := lid(Var(c.l.v)), lid(Var(c.r.v))
				if u != v {
					eFrom = append(eFrom, u)
					eTo = append(eTo, v)
					eMask = append(eMask, c.mask)
					eCon = append(eCon, int32(i))
				}
			case c.l.isVar:
				lid(Var(c.l.v))
			case c.r.isVar:
				lid(Var(c.r.v))
			}
		}
	}
	nl := len(locals)
	fwd := refNewCSR(nl, eFrom, eTo, eMask, eCon)
	rev := refNewCSR(nl, eTo, eFrom, eMask, eCon)

	// Constant bounds aggregated per variable. For upper bounds κ ⊑ c
	// the per-component bound is binary — the component bit is either
	// kept (every bound carries it) or cleared — so the aggregate is one
	// AND per constraint; upCover marks components with at least one
	// bound. The bounds themselves are listed per variable in constraint
	// order, for witnesses: loHead/upHead start a list of entries, and
	// entry bounds[e] names a constraint and links to the next entry.
	// reach holds, per node, the bitset of lattice components on which
	// the node is reachable from (or backwards to) the current interface
	// variable; em collects the components on which each interface
	// variable is reached.
	loAgg := make([]qual.Elem, nl)
	upAgg := make([]qual.Elem, nl)
	upCover := make([]qual.Elem, nl)
	reach := make([]qual.Elem, nl)
	em := make([]qual.Elem, nIface)
	heads := make([]int32, 2*nl)
	loHead, upHead := heads[:nl], heads[nl:]
	var bounds []struct{ con, next int32 }
	for i := range upAgg {
		upAgg[i] = top
	}
	for i := range heads {
		heads[i] = -1
	}
	for r := len(rgs) - 1; r >= 0; r-- {
		for i := rgs[r][1] - 1; i >= rgs[r][0]; i-- {
			var head *int32
			switch c := s.rec(i); {
			case !c.l.isVar && c.r.isVar:
				u := id[Var(c.r.v)]
				loAgg[u] |= c.l.c & c.mask
				head = &loHead[u]
			case c.l.isVar && !c.r.isVar:
				u := id[Var(c.l.v)]
				upAgg[u] &= c.r.c | ^c.mask
				upCover[u] |= c.mask
				head = &upHead[u]
			default:
				continue
			}
			bounds = append(bounds, struct{ con, next int32 }{int32(i), *head})
			*head = int32(len(bounds) - 1)
		}
	}
	// par[u] is the constraint by which the current pass first reached
	// u, and from[u] the node at its other end, so following them from a
	// reached node walks back to the interface variable of the pass.
	// emPar/emFrom record the same for the first arrival at an interface
	// variable.
	links := make([]int32, 2*nl+2*int(nIface))
	par, from := links[:nl], links[nl:2*nl]
	emPar, emFrom := links[2*nl:2*nl+int(nIface)], links[2*nl+int(nIface):]
	inQ := make([]bool, nl)
	var queue, touched, emTouched []int32

	emit := func(c Constraint, w0 int) {
		out = append(out, c)
		span = append(span, int32(w0), int32(len(wit)))
	}
	// pathFrom appends the links from u back to x: the backward pass's
	// path from u to x, source first.
	pathFrom := func(u, x int32) {
		for ; u != x; u = from[u] {
			wit = append(wit, par[u])
		}
	}
	// pathTo appends the forward pass's path from x to u, source first.
	pathTo := func(x, u int32) {
		w0 := len(wit)
		pathFrom(u, x)
		slices.Reverse(wit[w0:])
	}

	for x := int32(0); x < nIface; x++ {
		// Forward pass: interface edges, and constant upper bounds on
		// the components where they actually constrain x. upperClear
		// collects the components b with a reachable bound lacking b;
		// the emitted bound for such a component is always top&^b.
		var upperClear qual.Elem
		reach[x] = full
		touched = append(touched[:0], x)
		queue = append(queue[:0], x)
		inQ[x] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[u] = false
			b := reach[u]
			if clear := upCover[u] & b &^ upAgg[u] &^ upperClear; clear != 0 {
				upperClear |= clear
				for bits := clear; bits != 0; bits &= bits - 1 {
					bit := bits & -bits
					// The first bound at u that clears bit.
					var k int32
					for e := upHead[u]; ; e = bounds[e].next {
						k = bounds[e].con
						if c := s.rec(int(k)); c.mask&^c.r.c&bit != 0 {
							break
						}
					}
					w0 := len(wit)
					pathTo(x, u)
					wit = append(wit, k)
					emit(Constraint{L: V(locals[x]), R: C(top &^ bit), Mask: bit, Why: s.why(s.rec(int(k)))}, w0)
				}
			}
			for e := fwd.off[u]; e < fwd.off[u+1]; e++ {
				bits := b & fwd.mask[e]
				if bits == 0 {
					continue
				}
				v := fwd.to[e]
				if v < nIface {
					if em[v] == 0 {
						emTouched = append(emTouched, v)
						emPar[v], emFrom[v] = fwd.con[e], u
					}
					em[v] |= bits
					continue
				}
				if bits&^reach[v] == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
					par[v], from[v] = fwd.con[e], u
				}
				reach[v] |= bits
				if !inQ[v] {
					queue = append(queue, v)
					inQ[v] = true
				}
			}
		}
		for _, v := range emTouched {
			if v != x || loops {
				w0 := len(wit)
				pathTo(x, emFrom[v])
				wit = append(wit, emPar[v])
				emit(Constraint{L: V(locals[x]), R: V(locals[v]), Mask: em[v], Why: s.why(s.rec(int(wit[w0])))}, w0)
			}
			em[v] = 0
		}
		emTouched = emTouched[:0]
		for _, u := range touched {
			reach[u] = 0
		}

		// Backward pass: constant lower bounds flowing into x, one
		// projected bound per original bound that brings new components.
		// Interface sources terminate the walk (their flow is covered by
		// the edge kept from them).
		var lowerIn qual.Elem
		reach[x] = full
		touched = append(touched[:0], x)
		queue = append(queue[:0], x)
		inQ[x] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[u] = false
			b := reach[u]
			if in := loAgg[u] & b &^ lowerIn; in != 0 {
				lowerIn |= in
				for e := loHead[u]; in != 0; e = bounds[e].next {
					k := bounds[e].con
					c := s.rec(int(k))
					if bits := c.l.c & c.mask & in; bits != 0 {
						in &^= bits
						w0 := len(wit)
						wit = append(wit, k)
						pathFrom(u, x)
						emit(Constraint{L: C(bits), R: V(locals[x]), Mask: bits, Why: s.why(c)}, w0)
					}
				}
			}
			for e := rev.off[u]; e < rev.off[u+1]; e++ {
				bits := b & rev.mask[e]
				v := rev.to[e]
				if v < nIface || bits&^reach[v] == 0 {
					continue
				}
				if reach[v] == 0 {
					touched = append(touched, v)
					par[v], from[v] = rev.con[e], u
				}
				reach[v] |= bits
				if !inQ[v] {
					queue = append(queue, v)
					inQ[v] = true
				}
			}
		}
		for _, u := range touched {
			reach[u] = 0
		}
	}

	// Emission order above follows traversal order; scheme constraints
	// feed instantiation, so the projection is sorted into a canonical
	// deterministic order, witness spans alongside.
	sort.Sort(bySpan{out, span})
	return out, span, wit
}

// refNewCSR is newCSR as it was before it reused its slices: fresh
// arrays per call.
func refNewCSR(n int, from, to []int32, mask []qual.Elem, con []int32) csr {
	g := csr{off: make([]int32, n+1), to: make([]int32, len(from)), mask: make([]qual.Elem, len(from))}
	if con != nil {
		g.con = make([]int32, len(from))
	}
	for _, u := range from {
		g.off[u]++
	}
	for u := 1; u <= n; u++ {
		g.off[u] += g.off[u-1]
	}
	for i := len(from) - 1; i >= 0; i-- {
		u := from[i]
		g.off[u]--
		g.to[g.off[u]] = to[i]
		g.mask[g.off[u]] = mask[i]
		if con != nil {
			g.con[g.off[u]] = con[i]
		}
	}
	return g
}

// refGeneralize is Generalize as it was before the projection
// workspace: a map deduplicates the interface, and refRestrict projects.
func (s *System) refGeneralize(body []Var, local func(Var) bool, rgs ...[2]int) (qvars []Var, p *Projection) {
	seen := make(map[Var]bool, len(body))
	iface := make([]Var, 0, len(body))
	add := func(v Var) {
		if !seen[v] {
			seen[v] = true
			iface = append(iface, v)
		}
	}
	for _, v := range body {
		add(v)
	}
	for _, rg := range rgs {
		for i := rg[0]; i < rg[1]; i++ {
			for _, t := range [2]Term{s.rec(i).l, s.rec(i).r} {
				if t.isVar && !local(Var(t.v)) {
					add(Var(t.v))
				}
			}
		}
	}
	for _, v := range iface {
		if local(v) {
			qvars = append(qvars, v)
		}
	}
	slices.Sort(qvars)
	out, span, wit := s.refRestrict(rgs, iface, false)
	return qvars, &Projection{Cons: out, span: span, wit: wit}
}
