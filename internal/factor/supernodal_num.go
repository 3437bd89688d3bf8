package factor

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opera/internal/obs"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// SuperFactor is a numeric supernodal Cholesky factorization
// P·A·Pᵀ = L·Lᵀ with L stored column-major in dense per-supernode
// panels. It solves through the same zero-allocation entry points as
// CholFactor.
type SuperFactor struct {
	Sym *SuperSymbolic
	val []float64 // concatenated panels; supernode s at Sym.poff[s], ld = its row count
}

// Row splitting. A supernode whose panel holds at least splitEntries
// values is factored by the whole pool when Workers > 1: its row range
// is cut into chunks for the descendant updates and, column block by
// column block, for the rows below each diagonal block. The cut never
// changes any entry's arithmetic, only which goroutine performs it.
const (
	splitEntries = 1 << 16 // panel size from which a supernode is split
	splitCols    = 32      // column block width of a split panel factor
	splitRows    = 32      // fewest rows in one chunk
	splitChunks  = 4       // chunks per worker (dynamic load balance)
)

// SplitSupernodes reports how many supernodes reach the split size, so
// are factored by the whole pool when the factorization runs with more
// than one worker.
func (s *SuperSymbolic) SplitSupernodes() int {
	k := 0
	for sn := 0; sn < s.Supernodes(); sn++ {
		if s.poff[sn+1]-s.poff[sn] >= splitEntries {
			k++
		}
	}
	return k
}

// errPattern reports a matrix entry outside the analyzed pattern.
var errPattern = errors.New("factor: matrix pattern differs from the analysis")

// superScratch is one goroutine's private workspace.
type superScratch struct {
	w      []float64 // two negated columns of an update, indexed by update row
	relind []int     // row positions of an update inside the target panel
	pos    []int     // node -> panel row of the supernode being scattered
	mark   []int     // node -> 1 + the supernode that last set pos
}

// factorRun is one numeric factorization in flight. It reads an
// n-node CSC pattern whose every stored entry is a dense B×B row-major
// block (B = 1 for a scalar matrix); both triangles are stored and the
// kernel reads the lower one.
type factorRun struct {
	f          *SuperFactor
	colp, rowi []int
	val        []float64
	workers    int
	pool       sync.Pool // *superScratch
}

func (r *factorRun) scratch() *superScratch {
	if sc, ok := r.pool.Get().(*superScratch); ok {
		return sc
	}
	sym := r.f.Sym
	return &superScratch{
		w:      make([]float64, 2*sym.maxRows),
		relind: make([]int, sym.maxRows),
		pos:    make([]int, sym.N/sym.B),
		mark:   make([]int, sym.N/sym.B),
	}
}

// Factorize numerically factors the scalar matrix a, which must share
// the analyzed pattern (entries may be missing numerically) and be
// stored with both triangles. reuse, when non-nil and produced from
// the same analysis, recycles the panel storage. workers caps the task
// pool (≤1 = serial); the resulting factor is bit-identical for every
// worker count because each panel entry receives its updates in a
// fixed order no matter which worker computes them.
func (sym *SuperSymbolic) Factorize(a *sparse.Matrix, reuse *SuperFactor, workers int) (*SuperFactor, error) {
	if sym.B != 1 {
		return nil, fmt.Errorf("factor: Factorize on a block analysis (B = %d); use FactorizeBlock", sym.B)
	}
	if a.Rows != sym.N || a.Cols != sym.N {
		return nil, fmt.Errorf("factor: Factorize matrix is %dx%d, analyzed %d", a.Rows, a.Cols, sym.N)
	}
	return sym.factorize(&factorRun{colp: a.Colp, rowi: a.Rowi, val: a.Val, workers: workers}, reuse)
}

// FactorizeBlock numerically factors the block matrix m, whose node
// pattern and block size must match the analysis. The blocks are
// scattered straight into the panels through the node permutation; no
// scalar copy of m is made.
func (sym *SuperSymbolic) FactorizeBlock(m *BlockMatrix, reuse *SuperFactor, workers int) (*SuperFactor, error) {
	if m.B != sym.B || m.N*m.B != sym.N {
		return nil, fmt.Errorf("factor: FactorizeBlock matrix is %d nodes × B = %d, analyzed %d × %d", m.N, m.B, sym.N/sym.B, sym.B)
	}
	return sym.factorize(&factorRun{colp: m.Colp, rowi: m.Rowi, val: m.Val, workers: workers}, reuse)
}

func (sym *SuperSymbolic) factorize(r *factorRun, reuse *SuperFactor) (*SuperFactor, error) {
	pick := func(m *factorMetrics) *obs.Histogram { return m.superChol }
	if reuse != nil {
		pick = func(m *factorMetrics) *obs.Histogram { return m.refactor }
	}
	defer observe(pick)()
	f := reuse
	if f == nil || f.Sym != sym {
		f = &SuperFactor{Sym: sym, val: make([]float64, sym.PanelNNZ())}
	}
	r.f, r.workers = f, max(r.workers, 1)
	var err error
	if r.workers == 1 {
		sc := r.scratch()
		// Ascending supernode order is a topological order of the update
		// DAG: every updater of s is a descendant with smaller columns.
		// The first failure is therefore the minimum failing column.
		for s := 0; s < sym.Supernodes() && err == nil; s++ {
			err = r.supernode(s, sc)
		}
	} else {
		err = r.parallel()
	}
	if err != nil {
		return nil, err
	}
	recordWork(sym.FlopEstimate(), sym.FillRatio())
	return f, nil
}

// parallel schedules supernodes over the update DAG: a supernode
// becomes ready when all its updaters have completed. On failure every
// task still runs (cheaply computing garbage downstream of the failed
// panel) so that the supernode holding the smallest failing column
// always executes with fully valid inputs — the reported error is then
// the one serial order reports, identical at every worker count.
func (r *factorRun) parallel() error {
	sym := r.f.Sym
	ns := sym.Supernodes()
	if ns == 0 {
		return nil
	}
	deps := make([]int32, ns)
	ready := make(chan int, ns)
	for s := 0; s < ns; s++ {
		deps[s] = int32(sym.updp[s+1] - sym.updp[s])
		if deps[s] == 0 {
			ready <- s
		}
	}
	var pending atomic.Int64
	pending.Store(int64(ns))
	var mu sync.Mutex
	var firstErr error
	firstCol := sym.N
	var wg sync.WaitGroup
	for w := 0; w < min(r.workers, ns); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := r.scratch()
			defer r.pool.Put(sc)
			for s := range ready {
				if e := r.supernode(s, sc); e != nil {
					col := sym.sstart[s]
					if pe, ok := e.(*pivotError); ok {
						col = pe.col
					}
					mu.Lock()
					if firstErr == nil || col < firstCol {
						firstCol, firstErr = col, e
					}
					mu.Unlock()
				}
				for _, t := range sym.tgt[sym.tgtp[s]:sym.tgtp[s+1]] {
					if atomic.AddInt32(&deps[t], -1) == 0 {
						ready <- t
					}
				}
				if pending.Add(-1) == 0 {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// pivotError carries the failing column so the parallel scheduler can
// select the deterministic (minimum-column) failure.
type pivotError struct {
	col int
	d   float64
}

func (e *pivotError) Error() string {
	return fmt.Sprintf("%v (pivot %d: %g)", ErrNotPositiveDefinite, e.col, e.d)
}

func (e *pivotError) Unwrap() error { return ErrNotPositiveDefinite }

// supernode runs the complete left-looking computation of one
// supernode: scatter the matrix into the panel, apply every descendant
// update in ascending order, then factor the dense trapezoid in place.
// A large panel is split by rows across the pool (see splitEntries).
func (r *factorRun) supernode(s int, sc *superScratch) error {
	f := r.f
	sym := f.Sym
	start := sym.sstart[s]
	w := sym.sstart[s+1] - start
	nr := sym.rowp[s+1] - sym.rowp[s]
	panel := f.val[sym.poff[s]:sym.poff[s+1]]
	if err := r.scatter(s, panel, sc); err != nil {
		return err
	}
	upd := sym.upd[sym.updp[s]:sym.updp[s+1]]
	if r.workers == 1 || len(panel) < splitEntries {
		for _, d := range upd {
			f.applyUpdate(d, s, 0, nr, sc)
		}
		return factorCols(panel, nr, start, 0, w, 0, nr)
	}
	err := r.forRows(0, nr, func(r0, r1 int, sc *superScratch) {
		for _, d := range upd {
			f.applyUpdate(d, s, r0, r1, sc)
		}
	})
	// Column block by column block: the diagonal block first, then the
	// rows below it, which depend only on the finished diagonal block.
	for j0 := 0; j0 < w && err == nil; j0 += splitCols {
		j1 := min(j0+splitCols, w)
		if err = factorCols(panel, nr, start, j0, j1, j0, j1); err == nil {
			err = r.forRows(j1, nr, func(r0, r1 int, _ *superScratch) {
				_ = factorCols(panel, nr, start, j0, j1, r0, r1) // no pivot below the block
			})
		}
	}
	return err
}

// forRows runs fn over the panel rows [lo, hi) cut into chunks spread
// across the run's workers, each chunk with scratch of its own. Chunk
// boundaries only decide which goroutine writes which rows.
func (r *factorRun) forRows(lo, hi int, fn func(r0, r1 int, sc *superScratch)) error {
	n := hi - lo
	chunks := max(1, min(splitChunks*r.workers, n/splitRows))
	return parallel.ForEach(r.workers, chunks, func(_, c int) error {
		sc := r.scratch()
		fn(lo+n*c/chunks, lo+n*(c+1)/chunks, sc)
		r.pool.Put(sc)
		return nil
	})
}

// scatter zeroes supernode s's panel and copies the lower triangle of
// the permuted matrix into it. Node column jn of the permutation is
// column perm[jn] of the source; each of its stored blocks at or below
// the diagonal lands in the panel rows of its permuted node, found
// through a node -> panel-row map built from the panel's row list.
func (r *factorRun) scatter(s int, panel []float64, sc *superScratch) error {
	sym := r.f.Sym
	b := sym.B
	bb := b * b
	start := sym.sstart[s]
	rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
	nr := len(rlist)
	clear(panel)
	for i := 0; i < nr; i += b {
		node := rlist[i] / b
		sc.mark[node] = s + 1
		sc.pos[node] = i
	}
	for jn := start / b; jn < sym.sstart[s+1]/b; jn++ {
		jo := jn
		if sym.Perm != nil {
			jo = sym.Perm[jn*b] / b
		}
		col := panel[(jn*b-start)*nr:]
		for p := r.colp[jo]; p < r.colp[jo+1]; p++ {
			in := r.rowi[p]
			if sym.nodeInv != nil {
				in = sym.nodeInv[in]
			}
			if in < jn {
				continue
			}
			if sc.mark[in] != s+1 {
				return errPattern
			}
			blk := r.val[p*bb : (p+1)*bb]
			pos := sc.pos[in]
			for c := 0; c < b; c++ {
				dst := col[c*nr+pos : c*nr+pos+b]
				rr := 0
				if in == jn {
					rr = c // diagonal block: its lower triangle only
				}
				for ; rr < b; rr++ {
					dst[rr] = blk[rr*b+c]
				}
			}
		}
	}
	return nil
}

// factorCols runs the dense left-looking Cholesky of a panel (nr rows,
// column-major) for columns [j0, j1), restricted to rows [r0, r1).
// Column j first absorbs the rank-1 contributions of columns k<j over
// its rows at or below j (contiguous axpys, prior columns taken in
// pairs to halve the store traffic), then — when row j lies in range —
// takes the pivot square root, and finally scales its rows below the
// pivot. Every entry sees the same operations in the same order
// whatever the row range, so splitting rows or columns never changes a
// bit; rows below the column block need the diagonal block finished
// first. start is the panel's first column, for error reporting.
func factorCols(panel []float64, nr, start, j0, j1, r0, r1 int) error {
	pc := panelCols{panel, nr, 0}
	for j := j0; j < j1; j++ {
		cj := pc.col(j)
		lo := max(j, r0)
		if lo >= r1 {
			continue
		}
		if j%2 == 0 && j+1 < j1 {
			// Columns j and j+1 share their prior-column pairs (j even),
			// so one pass over each pair updates both; j+1 then absorbs
			// column j alone, as it would unpaired.
			c1 := pc.col(j + 1)
			lo1 := max(j+1, r0)
			updatePair(cj, c1, lo, lo1, r1, pc, j, j)
			if err := finishCol(cj, j, lo, r1, start); err != nil {
				return err
			}
			j++
			cj, lo = c1, lo1
			if lo >= r1 {
				continue
			}
			updateOne(cj, lo, r1, pc, j-1, j, j)
		} else {
			updateOne(cj, lo, r1, pc, 0, j, j)
		}
		if err := finishCol(cj, j, lo, r1, start); err != nil {
			return err
		}
	}
	return nil
}

// panelCols views the columns of a column-major panel (leading
// dimension ld) from row off down.
type panelCols struct {
	v       []float64
	ld, off int
}

func (p panelCols) col(k int) []float64 { return p.v[k*p.ld+p.off : (k+1)*p.ld] }

// updatePair subtracts from two adjacent target columns — x0 over rows
// [lo0, hi), x1 over rows [lo1, hi), where lo1 is lo0 or lo0+1 — the
// contributions of the input columns 0..m−1 of y taken in pairs
// (k, k+1): x0 −= y_k[r]·y_k + y_{k+1}[r]·y_{k+1}, and x1 the same with
// the coefficients of row r+1, in one pass over each pair; an odd last
// column comes alone. A pair whose two coefficients are zero is skipped
// for that target. Every entry sees the same operations in the same
// order as one target at a time (updateOne).
func updatePair(x0, x1 []float64, lo0, lo1, hi int, y panelCols, m, r int) {
	k := 0
	for ; k+1 < m; k += 2 {
		y0, y1 := y.col(k), y.col(k+1)
		a0, a1 := y0[r], y1[r]
		b0, b1 := y0[r+1], y1[r+1]
		skipA, skipB := a0 == 0 && a1 == 0, b0 == 0 && b1 == 0
		switch {
		case skipA && skipB:
		case skipB:
			axpy2(x0[lo0:hi], y0[lo0:hi], y1[lo0:hi], a0, a1)
		case skipA:
			axpy2(x1[lo1:hi], y0[lo1:hi], y1[lo1:hi], b0, b1)
		default:
			if lo0 < lo1 {
				x0[lo0] -= a0*y0[lo0] + a1*y1[lo0]
			}
			axpy2x2(x0[lo1:hi], x1[lo1:hi], y0[lo1:hi], y1[lo1:hi], a0, a1, b0, b1)
		}
	}
	updateOne(x0, lo0, hi, y, k, m, r)
	updateOne(x1, lo1, hi, y, k, m, r+1)
}

// updateOne subtracts from the target x over rows [lo, hi) the
// contributions of the input columns k0..m−1 of y in pairs, with the
// coefficients of row r, then an odd last column alone.
func updateOne(x []float64, lo, hi int, y panelCols, k0, m, r int) {
	k := k0
	for ; k+1 < m; k += 2 {
		y0, y1 := y.col(k), y.col(k+1)
		if a0, a1 := y0[r], y1[r]; a0 != 0 || a1 != 0 {
			axpy2(x[lo:hi], y0[lo:hi], y1[lo:hi], a0, a1)
		}
	}
	if k < m {
		if yk := y.col(k); yk[r] != 0 {
			axpy1(x[lo:hi], yk[lo:hi], yk[r])
		}
	}
}

// finishCol takes column j's pivot square root when row j is in the
// range [lo, r1), then scales the column's in-range rows below it.
func finishCol(cj []float64, j, lo, r1, start int) error {
	x := cj[lo:r1]
	if lo == j {
		d := cj[j]
		if d <= 0 || math.IsNaN(d) {
			return &pivotError{col: start + j, d: d}
		}
		cj[j] = math.Sqrt(d)
		x = x[1:]
	}
	inv := 1 / cj[j]
	for i := range x {
		x[i] *= inv
	}
	return nil
}

// axpy1 computes x -= a·y.
func axpy1(x, y []float64, a float64) {
	y = y[:len(x)]
	for i := range x {
		x[i] -= a * y[i]
	}
}

// axpy2 computes x -= a0·y0 + a1·y1.
func axpy2(x, y0, y1 []float64, a0, a1 float64) {
	y0, y1 = y0[:len(x)], y1[:len(x)]
	for i := range x {
		x[i] -= a0*y0[i] + a1*y1[i]
	}
}

// axpy2x2 computes x0 -= a0·y0 + a1·y1 and x1 -= b0·y0 + b1·y1 in
// one pass over y0 and y1.
func axpy2x2(x0, x1, y0, y1 []float64, a0, a1, b0, b1 float64) {
	x1, y0, y1 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)]
	for i := range x0 {
		u, v := y0[i], y1[i]
		x0[i] -= a0*u + a1*v
		x1[i] -= b0*u + b1*v
	}
}

// applyUpdate subtracts the rank-w_d contribution of descendant
// supernode d from target s — W = L_d[rows ≥ start_s] · L_d[rows in
// s]ᵀ — restricted to the target's panel rows [r0, r1). W is staged two
// columns at a time and scattered through relative indices, so the
// scratch holds two panel heights; the inner loops run over contiguous
// panel columns. Each entry of W is accumulated in the same order
// whatever the row range.
func (f *SuperFactor) applyUpdate(d, s, r0, r1 int, sc *superScratch) {
	sym := f.Sym
	start, end := sym.sstart[s], sym.sstart[s+1]
	rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
	nr := len(rlist)
	panel := f.val[sym.poff[s]:sym.poff[s+1]]
	wd := sym.sstart[d+1] - sym.sstart[d]
	drows := sym.rows[sym.rowp[d]:sym.rowp[d+1]]
	ndr := len(drows)
	// ci0: first row of d at or beyond s's columns; ci1: first beyond.
	ci0 := wd
	for drows[ci0] < start {
		ci0++
	}
	ci1 := ci0
	for ci1 < ndr && drows[ci1] < end {
		ci1++
	}
	ncl := ci1 - ci0 // update columns (map to columns of s)
	nru := ndr - ci0 // update rows
	dcols := panelCols{f.val[sym.poff[d]:sym.poff[d+1]], ndr, ci0}
	// Every updated row of d appears in s's panel rows; one merge walk
	// computes all relative indices.
	relind := sc.relind[:nru]
	pos := 0
	for i := ci0; i < ndr; i++ {
		r := drows[i]
		for rlist[pos] != r {
			pos++
		}
		relind[i-ci0] = pos
	}
	// Update rows [ia, ib) land in the panel rows [r0, r1).
	ia := 0
	for ia < nru && relind[ia] < r0 {
		ia++
	}
	ib := ia
	for ib < nru && relind[ib] < r1 {
		ib++
	}
	if ia == ib {
		return
	}
	if ncl == 1 {
		// Single-column update — the dominant shape when the ordering
		// yields narrow supernodes. Skip the staging buffer and
		// accumulate straight into the target column through the
		// relative indices, two updater columns per scattered pass.
		col := panel[relind[0]*nr:]
		p := 0
		for ; p+1 < wd; p += 2 {
			d0, d1 := dcols.col(p), dcols.col(p+1)
			a0, a1 := d0[0], d1[0]
			if a0 == 0 && a1 == 0 {
				continue
			}
			for i := ia; i < ib; i++ {
				col[relind[i]] -= a0*d0[i] + a1*d1[i]
			}
		}
		if p < wd {
			dcol := dcols.col(p)
			if coef := dcol[0]; coef != 0 {
				for i := ia; i < ib; i++ {
					col[relind[i]] -= coef * dcol[i]
				}
			}
		}
		return
	}
	// General shape: W a column at a time, accumulated negated in the
	// scratch (−W gathers the same terms with the same roundings) and
	// added once through the relative indices. Two columns of W share
	// each pass over a pair of updater columns.
	w0, w1 := sc.w[:nru], sc.w[nru:2*nru]
	for c := 0; c < ncl && c < ib; c++ {
		lo := max(c, ia)
		pair := c+1 < ncl && c+1 < ib
		lo1 := max(c+1, ia)
		clear(w0[lo:ib])
		if pair {
			clear(w1[lo1:ib])
			updatePair(w0, w1, lo, lo1, ib, dcols, wd, c)
		} else {
			updateOne(w0, lo, ib, dcols, 0, wd, c)
		}
		scatterAdd(panel[relind[c]*nr:(relind[c]+1)*nr], relind[lo:ib], w0[lo:ib])
		if pair {
			scatterAdd(panel[relind[c+1]*nr:(relind[c+1]+1)*nr], relind[lo1:ib], w1[lo1:ib])
			c++
		}
	}
}

// scatterAdd computes col[rel[i]] += w[i].
func scatterAdd(col []float64, rel []int, w []float64) {
	rel = rel[:len(w)]
	for i, v := range w {
		col[rel[i]] += v
	}
}

// Solve solves A·x = b, returning the solution in a new slice.
func (f *SuperFactor) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into x (which may alias b). Scratch comes
// from the package pool; safe to call concurrently on a shared factor.
func (f *SuperFactor) SolveTo(x, b []float64) {
	y := getScratch(f.Sym.N)
	f.SolveToWithScratch(x, b, *y)
	putScratch(y)
}

// SolveToWithScratch solves A·x = b into x using the caller-provided
// work vector y of length n. It allocates nothing — the panels solve
// in place against y — matching CholFactor's hot-loop contract. x may
// alias b; y must not alias x or b.
func (f *SuperFactor) SolveToWithScratch(x, b, y []float64) {
	sym := f.Sym
	n := sym.N
	if len(b) != n || len(x) != n || len(y) != n {
		panic(fmt.Sprintf("factor: Solve length %d/%d/%d != %d", len(x), len(b), len(y), n))
	}
	if sym.Perm != nil {
		sparse.PermVecTo(y, sym.Perm, b)
	} else {
		copy(y, b)
	}
	ns := sym.Supernodes()
	// Forward: L·y = y, supernodes ascending. The diagonal block solves
	// first; then every below row takes its column contributions in
	// ascending column order, four columns per pass over the rows —
	// the same operations in the same order as one column at a time.
	for s := 0; s < ns; s++ {
		start := sym.sstart[s]
		w := sym.sstart[s+1] - start
		rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
		nr := len(rlist)
		panel := f.val[sym.poff[s]:sym.poff[s+1]]
		yb := y[start : start+w]
		for j := range yb {
			cj := panel[j*nr : j*nr+w]
			yj := yb[j] / cj[j]
			yb[j] = yj
			for i := j + 1; i < w; i++ {
				yb[i] -= cj[i] * yj
			}
		}
		below := rlist[w:]
		j := 0
		for ; j+3 < w; j += 4 {
			c0 := panel[j*nr+w : (j+1)*nr]
			c1 := panel[(j+1)*nr+w : (j+2)*nr]
			c2 := panel[(j+2)*nr+w : (j+3)*nr]
			c3 := panel[(j+3)*nr+w : (j+4)*nr]
			c0, c1, c2, c3 = c0[:len(below)], c1[:len(below)], c2[:len(below)], c3[:len(below)]
			y0, y1, y2, y3 := yb[j], yb[j+1], yb[j+2], yb[j+3]
			for i, r := range below {
				v := y[r]
				v -= c0[i] * y0
				v -= c1[i] * y1
				v -= c2[i] * y2
				v -= c3[i] * y3
				y[r] = v
			}
		}
		for ; j < w; j++ {
			cj := panel[j*nr+w : (j+1)*nr]
			cj = cj[:len(below)]
			yj := yb[j]
			for i, r := range below {
				y[r] -= cj[i] * yj
			}
		}
	}
	// Backward: Lᵀ·y = y, supernodes descending. The below rows are
	// final, so each column's gather over them runs first, four columns
	// per pass with independent sums; then the diagonal block solves.
	for s := ns - 1; s >= 0; s-- {
		start := sym.sstart[s]
		w := sym.sstart[s+1] - start
		rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
		nr := len(rlist)
		panel := f.val[sym.poff[s]:sym.poff[s+1]]
		yb := y[start : start+w]
		below := rlist[w:]
		j := 0
		for ; j+3 < w; j += 4 {
			c0 := panel[j*nr+w : (j+1)*nr]
			c1 := panel[(j+1)*nr+w : (j+2)*nr]
			c2 := panel[(j+2)*nr+w : (j+3)*nr]
			c3 := panel[(j+3)*nr+w : (j+4)*nr]
			c0, c1, c2, c3 = c0[:len(below)], c1[:len(below)], c2[:len(below)], c3[:len(below)]
			var s0, s1, s2, s3 float64
			for i, r := range below {
				v := y[r]
				s0 += c0[i] * v
				s1 += c1[i] * v
				s2 += c2[i] * v
				s3 += c3[i] * v
			}
			yb[j] -= s0
			yb[j+1] -= s1
			yb[j+2] -= s2
			yb[j+3] -= s3
		}
		for ; j < w; j++ {
			cj := panel[j*nr+w : (j+1)*nr]
			cj = cj[:len(below)]
			var sum float64
			for i, r := range below {
				sum += cj[i] * y[r]
			}
			yb[j] -= sum
		}
		for j := w - 1; j >= 0; j-- {
			cj := panel[j*nr : j*nr+w]
			sum := yb[j]
			for i := j + 1; i < w; i++ {
				sum -= cj[i] * yb[i]
			}
			yb[j] = sum / cj[j]
		}
	}
	if sym.Perm != nil {
		sparse.InvPermVecTo(x, sym.Perm, y)
	} else {
		copy(x, y)
	}
}

// L expands the panels into the scalar CSC lower factor under the
// exact symbolic pattern (padding zeros dropped). Intended for tests
// and diagnostics, not hot paths.
func (f *SuperFactor) L() *sparse.Matrix {
	sym := f.Sym
	n, b := sym.N, sym.B
	nodes := n / b
	colp := make([]int, n+1)
	for j := 0; j < n; j++ {
		colp[j+1] = colp[j] + (sym.count[j/b]-1)*b + b - j%b
	}
	l := &sparse.Matrix{
		Rows: n, Cols: n,
		Colp: colp,
		Rowi: make([]int, colp[n]),
		Val:  make([]float64, colp[n]),
	}
	next := append([]int(nil), colp[:n]...)
	at := func(i, j int) float64 { // L(i,j), i ≥ j
		sn := sym.snode[j/b]
		start := sym.sstart[sn]
		rlist := sym.rows[sym.rowp[sn]:sym.rowp[sn+1]]
		lo := j - start
		for rlist[lo] != i {
			lo++
		}
		return f.val[sym.poff[sn]+(j-start)*len(rlist)+lo]
	}
	put := func(i, j int) {
		l.Rowi[next[j]] = i
		l.Val[next[j]] = at(i, j)
		next[j]++
	}
	// Reconstruct each node column's pattern with the node-level
	// symbolic machinery, expand it by blocks, then read the values out
	// of the panels. Rows arrive in ascending order per column.
	parent := etree(sym.upper)
	s := make([]int, nodes)
	w := make([]int, nodes)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < nodes; k++ {
		for top := ereach(sym.upper, k, parent, s, w); top < nodes; top++ {
			for c := s[top] * b; c < (s[top]+1)*b; c++ {
				for i := k * b; i < (k+1)*b; i++ {
					put(i, c)
				}
			}
		}
		for c := k * b; c < (k+1)*b; c++ {
			for i := c; i < (k+1)*b; i++ {
				put(i, c)
			}
		}
	}
	return l
}
