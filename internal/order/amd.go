package order

import "opera/internal/obs"

// AMD computes an approximate-minimum-degree ordering in the
// Amestoy–Davis–Duff style: the quotient-graph element model of
// MinimumDegree, but instead of recomputing exact degrees after each
// elimination it maintains the external-degree upper bound
//
//	d̄(v) = min(n−k, d̄(v)+|Lp|−1, |Av|+|Lp\{v}|+Σ_e |Le\Lp|)
//
// where Lp is the pivot's boundary, Av the remaining direct neighbors
// of v and the sum runs over v's other adjacent elements. The |Le\Lp|
// terms for every element touching Lp are computed in one sweep over
// Lp (the w-array trick), so each elimination costs O(|Lp| + Σ|Ev|)
// instead of a reach() per affected vertex. Elements with Le ⊆ Lp are
// absorbed aggressively. Ties break to the lowest vertex index — the
// same deterministic rule as MinimumDegree.
func AMD(g *Graph) []int {
	defer observe(func(m *orderMetrics) *obs.Histogram { return m.amd })()
	n := g.N
	// Av and Ev of vertex v live in v's slot [g.Ptr[v], g.Ptr[v+1]) of
	// two flat arrays: each element appended to Ev replaces the pivot or
	// an element the same elimination absorbed, so |Av|+|Ev| <= deg(v).
	varAdj := append([]int(nil), g.Adj...)
	elemAdj := make([]int, len(g.Adj))
	varLen := make([]int, n)
	elemLen := make([]int, n)
	for v := 0; v < n; v++ {
		varLen[v] = g.Degree(v)
	}
	av := func(v int) []int { return varAdj[g.Ptr[v] : g.Ptr[v]+varLen[v]] }
	ev := func(v int) []int { return elemAdj[g.Ptr[v] : g.Ptr[v]+elemLen[v]] }

	// Element boundaries share one arena, in element order. A new
	// boundary is at most the pivot's Av plus the boundaries it absorbs
	// and frees, so live boundaries never exceed len(g.Adj) in total and
	// a full arena is compacted rather than grown.
	arena := make([]int, len(g.Adj)+n)
	top := 0
	elemStart := make([]int, 0, n)
	elemSize := make([]int, 0, n)
	elemAlive := make([]bool, 0, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	bnd := func(e int) []int { return arena[elemStart[e] : elemStart[e]+elemSize[e]] }

	deg := append([]int(nil), varLen...) // current degree bound d̄(v)
	queue := newDegQueue(deg)

	mark := make([]int, n) // Lp membership stamp
	for i := range mark {
		mark[i] = -1
	}
	stamp := 0
	wStamp := make([]int, 0, n) // per-element w-array stamp
	wVal := make([]int, 0, n)   // per-element |Le \ Lp| accumulator

	// compactElem drops dead vertices from an element boundary and
	// returns its live size.
	compactElem := func(e int) int {
		live := bnd(e)[:0]
		for _, v := range bnd(e) {
			if alive[v] {
				live = append(live, v)
			}
		}
		elemSize[e] = len(live)
		return len(live)
	}
	// newElem stores lp as the boundary of a new element.
	newElem := func(lp []int) {
		if top+len(lp) > len(arena) {
			top = 0
			for e := range elemStart {
				if !elemAlive[e] {
					continue
				}
				copy(arena[top:], bnd(e)) // top <= elemStart[e]: moves down
				elemStart[e] = top
				top += compactElem(e)
			}
			if top+len(lp) > len(arena) { // unreachable by the bound above
				arena = append(arena, make([]int, top+len(lp)-len(arena))...)
			}
		}
		elemStart = append(elemStart, top)
		elemSize = append(elemSize, copy(arena[top:], lp))
		elemAlive = append(elemAlive, true)
		top += len(lp)
	}

	lp := make([]int, 0, n)
	perm := make([]int, 0, n)
	for k := 0; k < n; k++ {
		p := queue.PopMin()
		// Build Lp = (Av ∪ ⋃ Le) \ {p}: the boundary of the new element.
		stamp++
		mark[p] = stamp
		lp = lp[:0]
		liveV := av(p)[:0]
		for _, v := range av(p) {
			if alive[v] {
				liveV = append(liveV, v)
				if mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
				}
			}
		}
		varLen[p] = len(liveV)
		liveE := ev(p)[:0]
		for _, e := range ev(p) {
			if !elemAlive[e] {
				continue
			}
			liveE = append(liveE, e)
			for _, v := range bnd(e) {
				if alive[v] && mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
				}
			}
		}
		elemLen[p] = len(liveE)
		perm = append(perm, p)
		alive[p] = false
		// The pivot's elements are absorbed into the new one.
		for _, e := range ev(p) {
			elemAlive[e] = false
		}
		ep := len(elemStart)
		newElem(lp)
		wStamp = append(wStamp, 0)
		wVal = append(wVal, 0)

		// w-array sweep: for every live element e adjacent to some
		// v ∈ Lp, w[e] ends as |Le \ Lp| (first touch seeds the live
		// size, each Lp member found in Le subtracts one).
		for _, v := range lp {
			for _, e := range ev(v) {
				if !elemAlive[e] {
					continue
				}
				if wStamp[e] != stamp {
					wStamp[e] = stamp
					wVal[e] = compactElem(e)
				}
				wVal[e]--
			}
		}

		// Degree update for every boundary vertex.
		for _, v := range lp {
			// Av loses dead vertices and Lp members (those adjacencies are
			// now represented by the new element).
			liveV := av(v)[:0]
			for _, u := range av(v) {
				if alive[u] && mark[u] != stamp {
					liveV = append(liveV, u)
				}
			}
			varLen[v] = len(liveV)
			// Ev keeps live elements; |Le\Lp| == 0 means Le ⊆ Lp — the
			// element is indistinguishable from the new one, so absorb it
			// (aggressive absorption).
			liveE := ev(v)[:0]
			elemSum := 0
			for _, e := range ev(v) {
				if !elemAlive[e] {
					continue
				}
				if wStamp[e] == stamp && wVal[e] == 0 {
					elemAlive[e] = false
					continue
				}
				liveE = append(liveE, e)
				if wStamp[e] == stamp {
					elemSum += wVal[e]
				} else {
					elemSum += compactElem(e)
				}
			}
			if g.Ptr[v]+len(liveE) == g.Ptr[v+1] {
				panic("order: AMD element list outgrew its adjacency slot")
			}
			elemAdj[g.Ptr[v]+len(liveE)] = ep
			elemLen[v] = len(liveE) + 1
			d := varLen[v] + (len(lp) - 1) + elemSum
			if b := deg[v] + len(lp) - 1; b < d {
				d = b
			}
			if b := n - k - 1; b < d {
				d = b
			}
			if d < 0 {
				d = 0
			}
			deg[v] = d
			queue.Update(v, d)
		}
	}
	return perm
}
