package factor

import (
	"fmt"

	"opera/internal/sparse"
)

// DefaultRelax is the default amalgamation threshold: merging a column
// into its parent supernode may introduce at most this many explicit
// zeros per member column on average. 0 yields exactly the fundamental
// supernodes; a huge value merges whole elimination-tree chains.
const DefaultRelax = 8

// SuperSymbolic carries the supernodal symbolic analysis: the column
// partition into supernodes (maximal chains of columns with identical
// below-diagonal pattern, relaxed by an amalgamation threshold), the
// per-supernode panel row lists, and the update dependency lists that
// drive both the left-looking numeric kernel and its parallel
// schedule. Like CholSymbolic, one analysis serves any number of
// numeric factorizations sharing the pattern.
//
// The analysis runs on an n-node pattern whose every entry stands for
// a dense B×B block (B = 1 for a scalar matrix). Each node expands into
// B consecutive scalar columns and rows — node-major indexing, scalar
// unknown i·B+m — so every supernode is at least B columns wide and the
// panels, updates and solves are those of the scalar kernel.
type SuperSymbolic struct {
	N    int   // scalar dimension n·B
	B    int   // block size: scalar columns per node
	Perm []int // scalar fill-reducing permutation; nil = natural
	// Workers caps the factorization's task pool (0 or 1 = serial).
	// The factor values are bit-identical for every setting — each
	// panel entry's arithmetic runs in a fixed order regardless of
	// which worker executes it — so this is purely a throughput knob.
	Workers int

	relax   int
	upper   *sparse.Matrix // permuted upper triangle of the node pattern
	nodeInv []int          // node permutation inverse: original -> permuted; nil = natural

	snode  []int // node -> supernode id
	sstart []int // supernode s spans scalar columns [sstart[s], sstart[s+1])
	rows   []int // concatenated scalar panel row lists (ascending per supernode)
	rowp   []int // rows of supernode s: rows[rowp[s]:rowp[s+1]]
	poff   []int // panel value offset of supernode s (column-major, ld = row count)
	upd    []int // concatenated updater ids, ascending per target
	updp   []int // updaters of s: upd[updp[s]:updp[s+1]]
	tgt    []int // concatenated ancestor targets, ascending per source
	tgtp   []int // targets of s: tgt[tgtp[s]:tgtp[s+1]]

	count    []int // exact nnz per node column of the node-level factor
	lnnz     int   // scalar nnz of L
	annz     int   // scalar nnz of lower(A), every stored block in full
	maxRows  int   // widest panel row count (scratch sizing)
	maxWidth int   // widest supernode
}

// CholAnalyzeSupernodal performs the supernodal symbolic analysis of
// the symmetric n-node pattern a, each entry a dense bsize×bsize block
// (bsize ≤ 1 means a scalar matrix), under the node permutation perm
// (nil = natural). relax is the amalgamation threshold in average
// padded scalar entries per scalar column; negative selects DefaultRelax,
// 0 disables amalgamation (fundamental supernodes). Only the pattern
// of a is consulted. Factorize consumes a scalar analysis (bsize 1),
// FactorizeBlock a block one.
func CholAnalyzeSupernodal(a *sparse.Matrix, perm []int, relax, bsize int) *SuperSymbolic {
	if a.Rows != a.Cols {
		panic("factor: CholAnalyzeSupernodal requires a square matrix")
	}
	if relax < 0 {
		relax = DefaultRelax
	}
	if bsize < 1 {
		bsize = 1
	}
	n := a.Rows
	if relax > n {
		relax = n // n per column already admits any chain; avoids overflow
	}
	c := a
	if perm != nil {
		if len(perm) != n {
			panic(fmt.Sprintf("factor: permutation length %d != %d", len(perm), n))
		}
		c = a.SymPerm(perm)
	}
	u := c.UpperTriangle()
	parent := etree(u)

	// Postorder the elimination tree. Fill-reducing orderings that
	// don't number etree children consecutively (minimum degree, AMD)
	// scatter the identical-pattern column chains, collapsing supernode
	// detection to near-scalar widths. Relabeling columns by a
	// postorder leaves the factor's fill and flops invariant but makes
	// every subtree — and hence every chain — contiguous. The composed
	// permutation becomes the analysis's effective Permutation().
	if post := postorder(parent); post != nil {
		np := make([]int, n)
		if perm == nil {
			copy(np, post)
		} else {
			for k, p := range post {
				np[k] = perm[p]
			}
		}
		perm = np
		c = a.SymPerm(perm)
		u = c.UpperTriangle()
		parent = etree(u)
	}

	// Pass 1: exact column counts of L via an ereach sweep (identical to
	// the scalar analysis, so both kernels report the same cost model).
	count := make([]int, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		count[k]++
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			count[s[top]]++
		}
	}

	b := bsize
	sym := &SuperSymbolic{N: n * b, B: b, relax: relax, upper: u, count: count}
	if perm != nil {
		sym.Perm = ExpandPerm(perm, b)
		sym.nodeInv = sparse.InversePerm(perm)
	}
	// Node column j expands into b scalar columns; the m-th holds the
	// b−m rows of the diagonal block at or below it plus every row of
	// the blocks below.
	for _, cc := range count {
		sym.lnnz += (cc-1)*b*b + b*(b+1)/2
	}
	for j := 0; j < n; j++ {
		for p := u.Colp[j]; p < u.Colp[j+1]; p++ {
			if u.Rowi[p] == j {
				sym.annz += b * (b + 1) / 2
			} else {
				sym.annz += b * b
			}
		}
	}

	// Supernode detection: greedy left-to-right chain growth. Column c
	// joins the current supernode [start..c-1] iff the etree chain
	// continues (parent[c-1] == c) and the total panel padding stays
	// within relax explicit zeros per member column. For a supernode
	// ending at column c with width W and count prefix sum sumCount, the
	// padded trapezoid holds W(W−1)/2 + W·count[c] entries, so the
	// padding is that minus sumCount. relax == 0 therefore admits
	// exactly the identical-pattern chains (fundamental supernodes).
	// Detection runs on nodes: block expansion scales the padding by b²
	// and the member columns by b, so the bound scales by b.
	snode := make([]int, n)
	sstart := make([]int, 0, n+1)
	start, sumCount := 0, 0
	for col := 0; col < n; col++ {
		if col > start {
			width := col - start + 1
			padded := width*(width-1)/2 + width*count[col]
			if parent[col-1] != col || (padded-(sumCount+count[col]))*b > relax*width {
				sstart = append(sstart, start)
				start, sumCount = col, 0
			}
		}
		sumCount += count[col]
		snode[col] = len(sstart)
	}
	if n > 0 {
		sstart = append(sstart, start)
	}
	sstart = append(sstart, n)
	ns := len(sstart) - 1
	sym.snode = snode

	// Pass 2: panel row lists. The rows of supernode s are its member
	// columns followed by the below-diagonal pattern of its last column;
	// the etree chain property guarantees every member column's pattern
	// fits inside that trapezoid. Row k of L has entry in column i
	// exactly when i appears in ereach(k), so one more sweep collects
	// the below rows of each last column in ascending k order. Node r
	// expands into the b consecutive scalar rows r·b … r·b+b−1, and
	// node column c into scalar columns likewise.
	nodeRows := make([]int, ns)
	for sn := 0; sn < ns; sn++ {
		nodeRows[sn] = sstart[sn+1] - sstart[sn]
	}
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			i := s[top]
			if sn := snode[i]; i == sstart[sn+1]-1 {
				nodeRows[sn]++
			}
		}
	}
	sym.sstart = make([]int, ns+1)
	sym.rowp = make([]int, ns+1)
	sym.poff = make([]int, ns+1)
	for sn := 0; sn < ns; sn++ {
		nr := nodeRows[sn] * b
		width := (sstart[sn+1] - sstart[sn]) * b
		sym.sstart[sn+1] = sstart[sn+1] * b
		sym.rowp[sn+1] = sym.rowp[sn] + nr
		sym.poff[sn+1] = sym.poff[sn] + nr*width
		sym.maxRows = max(sym.maxRows, nr)
		sym.maxWidth = max(sym.maxWidth, width)
	}
	sym.rows = make([]int, sym.rowp[ns])
	next := append([]int(nil), sym.rowp[:ns]...)
	push := func(sn, node int) {
		for m := 0; m < b; m++ {
			sym.rows[next[sn]] = node*b + m
			next[sn]++
		}
	}
	for sn := 0; sn < ns; sn++ {
		for j := sstart[sn]; j < sstart[sn+1]; j++ {
			push(sn, j)
		}
	}
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			i := s[top]
			if sn := snode[i]; i == sstart[sn+1]-1 {
				push(sn, k)
			}
		}
	}

	// Dependency lists. The ancestor targets of supernode d are the
	// distinct supernodes owning d's below rows; because the row list is
	// ascending and supernodes partition columns in order, consecutive
	// deduplication suffices. Inverting the target lists in d-ascending
	// order yields each target's updater list already ascending — the
	// fixed update order that makes the parallel schedule bit-exact.
	sym.tgtp = make([]int, ns+1)
	sym.updp = make([]int, ns+1)
	for sn := 0; sn < ns; sn++ {
		prev := -1
		for i := sym.rowp[sn] + sym.sstart[sn+1] - sym.sstart[sn]; i < sym.rowp[sn+1]; i += b {
			if t := snode[sym.rows[i]/b]; t != prev {
				sym.tgt = append(sym.tgt, t)
				sym.updp[t+1]++
				prev = t
			}
		}
		sym.tgtp[sn+1] = len(sym.tgt)
	}
	for sn := 0; sn < ns; sn++ {
		sym.updp[sn+1] += sym.updp[sn]
	}
	sym.upd = make([]int, len(sym.tgt))
	next = append(next[:0], sym.updp[:ns]...)
	for sn := 0; sn < ns; sn++ {
		for _, t := range sym.tgt[sym.tgtp[sn]:sym.tgtp[sn+1]] {
			sym.upd[next[t]] = sn
			next[t]++
		}
	}
	return sym
}

// ExpandPerm lifts a node permutation to node-major scalar indexing
// (unknown i·b+m): the scalar permutation of a block system. nil stays
// nil (natural order).
func ExpandPerm(perm []int, b int) []int {
	if perm == nil {
		return nil
	}
	out := make([]int, len(perm)*b)
	for k, p := range perm {
		for m := 0; m < b; m++ {
			out[k*b+m] = p*b + m
		}
	}
	return out
}

// Supernodes reports the number of supernodes in the partition.
func (s *SuperSymbolic) Supernodes() int { return len(s.sstart) - 1 }

// Size reports the analyzed dimension.
func (s *SuperSymbolic) Size() int { return s.N }

// Permutation returns the fill-reducing permutation (nil = natural).
func (s *SuperSymbolic) Permutation() []int { return s.Perm }

// KernelName names the supernodal kernel's telemetry rung.
func (s *SuperSymbolic) KernelName() string { return "supernodal" }

// LNNZ reports the number of nonzeros in the scalar factor L under the
// exact pattern (every block dense) — the same cost model as
// CholSymbolic.LNNZ, so the metric is comparable across kernels at
// equal permutation.
func (s *SuperSymbolic) LNNZ() int { return s.lnnz }

// PanelNNZ reports the stored panel entries including amalgamation
// padding and the never-read upper triangles of the diagonal blocks —
// the actual float64 storage of a numeric factor.
func (s *SuperSymbolic) PanelNNZ() int { return s.poff[len(s.poff)-1] }

// FlopEstimate returns the symbolic flop count Σ_j |L(:,j)|² over the
// scalar columns, matching CholSymbolic.FlopEstimate.
func (s *SuperSymbolic) FlopEstimate() int64 {
	var fl int64
	b := int64(s.B)
	for _, c := range s.count {
		below := int64(c-1) * b
		for m := int64(0); m < b; m++ {
			col := below + b - m
			fl += col * col
		}
	}
	return fl
}

// FillRatio reports nnz(L)/nnz(lower(A)) of the scalar system, every
// stored block counted in full (b² entries off the diagonal, b(b+1)/2
// on it) — the same meaning as CholSymbolic.FillRatio.
func (s *SuperSymbolic) FillRatio() float64 {
	if s.annz == 0 {
		return 0
	}
	return float64(s.lnnz) / float64(s.annz)
}

// Refactorize adapts Factorize to the kernel-generic Analysis
// interface, running with the analysis' Workers setting. It needs a
// scalar analysis (B = 1).
func (s *SuperSymbolic) Refactorize(a *sparse.Matrix, reuse ScalarFactor) (ScalarFactor, error) {
	var r *SuperFactor
	if sf, ok := reuse.(*SuperFactor); ok {
		r = sf
	}
	f, err := s.Factorize(a, r, s.Workers)
	if err != nil {
		return nil, err
	}
	return f, nil
}
