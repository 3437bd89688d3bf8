package order

// amdReference is the first AMD implementation, kept verbatim (with its
// own copy of the degree buckets) as the reference the lean AMD must
// match permutation for permutation. It allocates a slice per vertex
// and per element; AMD stores the same lists in flat arrays.
func amdReference(g *Graph) []int {
	n := g.N
	varAdj := make([][]int, n)  // remaining direct variable neighbors
	elemAdj := make([][]int, n) // adjacent element ids
	for v := 0; v < n; v++ {
		varAdj[v] = append([]int(nil), g.Neighbors(v)...)
	}
	elems := make([][]int, 0, n) // element id -> boundary (live subset lazily compacted)
	elemAlive := make([]bool, 0, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	deg := make([]int, n) // current degree bound d̄(v)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	buckets := newRefBuckets(deg, n)

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
		bnd := elems[e][:0]
		for _, v := range elems[e] {
			if alive[v] {
				bnd = append(bnd, v)
			}
		}
		elems[e] = bnd
		return len(bnd)
	}

	lp := make([]int, 0, n)
	perm := make([]int, 0, n)
	for k := 0; k < n; k++ {
		p := buckets.PopMin()
		// Build Lp = (Av ∪ ⋃ Le) \ {p}: the boundary of the new element.
		stamp++
		mark[p] = stamp
		lp = lp[:0]
		liveV := varAdj[p][:0]
		for _, v := range varAdj[p] {
			if alive[v] {
				liveV = append(liveV, v)
				if mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
				}
			}
		}
		varAdj[p] = liveV
		liveE := elemAdj[p][:0]
		for _, e := range elemAdj[p] {
			if !elemAlive[e] {
				continue
			}
			liveE = append(liveE, e)
			for _, v := range elems[e] {
				if alive[v] && mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
				}
			}
		}
		elemAdj[p] = liveE
		perm = append(perm, p)
		alive[p] = false
		// The pivot's elements are absorbed into the new one.
		for _, e := range elemAdj[p] {
			elemAlive[e] = false
		}
		ep := len(elems)
		elems = append(elems, append([]int(nil), lp...))
		elemAlive = append(elemAlive, true)
		wStamp = append(wStamp, 0)
		wVal = append(wVal, 0)

		// w-array sweep: for every live element e adjacent to some
		// v ∈ Lp, w[e] ends as |Le \ Lp| (first touch seeds the live
		// size, each Lp member found in Le subtracts one).
		for _, v := range lp {
			for _, e := range elemAdj[v] {
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
			liveV := varAdj[v][:0]
			for _, u := range varAdj[v] {
				if alive[u] && mark[u] != stamp {
					liveV = append(liveV, u)
				}
			}
			varAdj[v] = liveV
			// Ev keeps live elements; |Le\Lp| == 0 means Le ⊆ Lp — the
			// element is indistinguishable from the new one, so absorb it
			// (aggressive absorption).
			liveE := elemAdj[v][:0]
			elemSum := 0
			for _, e := range elemAdj[v] {
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
			liveE = append(liveE, ep)
			elemAdj[v] = liveE
			d := len(varAdj[v]) + (len(lp) - 1) + elemSum
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
			buckets.Update(v, d)
		}
	}
	return perm
}

type refBuckets struct {
	b   [][]int
	cur []int // recorded degree per vertex; -1 once popped
	min int
}

func newRefBuckets(deg []int, maxDeg int) *refBuckets {
	d := &refBuckets{
		b:   make([][]int, maxDeg+1),
		cur: make([]int, len(deg)),
	}
	for v, dv := range deg {
		d.cur[v] = dv
		d.b[dv] = append(d.b[dv], v)
	}
	return d
}

// Update moves v to degree nd (stale entries are dropped lazily).
func (d *refBuckets) Update(v, nd int) {
	d.cur[v] = nd
	d.b[nd] = append(d.b[nd], v)
	if nd < d.min {
		d.min = nd
	}
}

// PopMin extracts the lowest-index vertex of minimum degree, or -1
// when no live vertex remains. Each call compacts the bucket it scans,
// so stale entries are visited at most once per degree value.
func (d *refBuckets) PopMin() int {
	for d.min < len(d.b) {
		bucket := d.b[d.min]
		live := bucket[:0]
		best := -1
		for _, v := range bucket {
			if d.cur[v] != d.min {
				continue // stale
			}
			live = append(live, v)
			if best < 0 || v < best {
				best = v
			}
		}
		if best < 0 {
			d.b[d.min] = live
			d.min++
			continue
		}
		// Drop the winner from the compacted bucket.
		for i, v := range live {
			if v == best {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				break
			}
		}
		d.b[d.min] = live
		d.cur[best] = -1
		return best
	}
	return -1
}
