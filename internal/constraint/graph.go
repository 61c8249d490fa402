package constraint

// Constraint-graph adjacency.
//
// The solver and the Restrict projection both operate on the directed
// graph whose nodes are qualifier variables and whose edges are the
// variable-variable constraints κ1 ⊑ κ2, each carrying its component
// mask. Both build the graph per call as compressed-sparse-row arrays
// in counting passes (no per-node slice growth) and run masked worklist
// fixpoints over it. An edge with mask M moves only the components in
// M, so a ⊑-cycle forces equality only on the components every one of
// its edges carries; the worklists propagate per-component bitsets and
// need no special treatment of cycles.
//
// Blame paths run breadth-first over the original constraint list (see
// (*System).blame) through incomingCSR, which keeps insertion order, so
// extracted traces are deterministic. Restrict's adjacency also carries
// each edge's constraint index, from which it records witnesses.

import "repro/internal/qual"

// csr is compressed-sparse-row adjacency: the edges leaving node u go to
// to[off[u]:off[u+1]] and carry the masks mask[off[u]:off[u+1]]. When
// built with constraint indices, con[e] names the constraint edge e
// came from.
type csr struct {
	off, to []int32
	mask    []qual.Elem
	con     []int32
}

// newCSR builds the adjacency of the edges from[i] → to[i] (mask[i],
// constraint con[i] when con is non-nil) over n nodes, keeping each
// node's edges in input order.
func newCSR(n int, from, to []int32, mask []qual.Elem, con []int32) csr {
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
	// off[u] is now the end of u's run; placing the edges back to front
	// walks it down to the start.
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

// propagate is the masked worklist fixpoint over g: along every edge
// u → t, val[t] absorbs val[u] restricted to the edge's mask, until no
// value changes. Values only gain bits, so a node re-enters the worklist
// at most once per lattice component, and the pass is linear in the
// edges for a fixed lattice. inQ must be all false on entry and is left
// so; queue is scratch of capacity ≥ len(val).
func propagate(g csr, val []qual.Elem, inQ []bool, queue []int32) {
	queue = queue[:0]
	for v, x := range val {
		if x != 0 {
			queue = append(queue, int32(v))
			inQ[v] = true
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQ[u] = false
		x := val[u]
		for e := g.off[u]; e < g.off[u+1]; e++ {
			t := g.to[e]
			if add := x & g.mask[e]; add&^val[t] != 0 {
				val[t] |= add
				if !inQ[t] {
					inQ[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
}

// incomingCSR indexes, per variable, the constraints whose right side is
// that variable, in insertion order. It is the blame traversal's
// adjacency, built lazily on the first conflict.
type incomingCSR struct {
	off  []int32
	cons []int32
}

func buildIncomingCSR(cons []Constraint, n int) *incomingCSR {
	in := &incomingCSR{off: make([]int32, n+1)}
	for _, c := range cons {
		if c.R.isVar {
			in.off[c.R.v+1]++
		}
	}
	for i := 0; i < n; i++ {
		in.off[i+1] += in.off[i]
	}
	in.cons = make([]int32, in.off[n])
	cur := make([]int32, n)
	copy(cur, in.off[:n])
	for i, c := range cons {
		if c.R.isVar {
			in.cons[cur[c.R.v]] = int32(i)
			cur[c.R.v]++
		}
	}
	return in
}
