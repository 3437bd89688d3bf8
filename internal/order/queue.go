package order

// degQueue is the candidate queue shared by the minimum-degree
// orderings: an indexed binary min-heap on (degree, vertex), so PopMin
// always returns the lowest-index vertex among the minimum current
// degree — the deterministic tie-break rule both MinimumDegree and AMD
// promise. Its three arrays are allocated once.
type degQueue struct {
	heap []int // vertices in heap order
	pos  []int // heap index of each vertex; -1 once popped
	deg  []int // current degree of each vertex
}

func newDegQueue(deg []int) *degQueue {
	q := &degQueue{heap: make([]int, len(deg)), pos: make([]int, len(deg)), deg: append([]int(nil), deg...)}
	for v := range q.heap {
		q.heap[v], q.pos[v] = v, v
	}
	for i := len(deg)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

// less orders heap slots by degree, then by vertex index.
func (q *degQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	return q.deg[a] < q.deg[b] || (q.deg[a] == q.deg[b] && a < b)
}

func (q *degQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]], q.pos[q.heap[j]] = i, j
}

func (q *degQueue) up(i int) {
	for ; i > 0 && q.less(i, (i-1)/2); i = (i - 1) / 2 {
		q.swap(i, (i-1)/2)
	}
}

func (q *degQueue) down(i int) {
	for {
		best, l := i, 2*i+1
		if l < len(q.heap) && q.less(l, best) {
			best = l
		}
		if l+1 < len(q.heap) && q.less(l+1, best) {
			best = l + 1
		}
		if best == i {
			return
		}
		q.swap(i, best)
		i = best
	}
}

// Update moves v, which must not have been popped, to degree nd.
func (q *degQueue) Update(v, nd int) {
	q.deg[v] = nd
	q.up(q.pos[v])
	q.down(q.pos[v])
}

// PopMin extracts the lowest-index vertex of minimum degree, or -1
// when no vertex remains.
func (q *degQueue) PopMin() int {
	last := len(q.heap) - 1
	if last < 0 {
		return -1
	}
	v := q.heap[0]
	q.swap(0, last)
	q.heap = q.heap[:last]
	q.pos[v] = -1
	q.down(0)
	return v
}
