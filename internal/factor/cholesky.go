package factor

import (
	"errors"
	"fmt"
	"math"

	"opera/internal/obs"
	"opera/internal/sparse"
)

// ErrNotPositiveDefinite is returned when a pivot of the Cholesky
// factorization is not strictly positive.
var ErrNotPositiveDefinite = errors.New("factor: matrix is not positive definite")

// CholSymbolic carries the reusable symbolic analysis of a Cholesky
// factorization: the fill-reducing permutation, the elimination tree of
// the permuted matrix, and the column pointers of L. One symbolic
// analysis serves any number of numeric factorizations that share the
// sparsity pattern — the key to a fast Monte Carlo loop.
type CholSymbolic struct {
	N      int
	Perm   []int // fill-reducing permutation (new = old[Perm[new]]); nil = natural
	parent []int
	colp   []int // column pointers of L (length N+1)
	upper  *sparse.Matrix
}

// CholAnalyze performs symbolic analysis of the symmetric matrix a
// under permutation perm (pass nil for natural order). Only the pattern
// of a is consulted.
func CholAnalyze(a *sparse.Matrix, perm []int) *CholSymbolic {
	if a.Rows != a.Cols {
		panic("factor: CholAnalyze requires a square matrix")
	}
	n := a.Rows
	c := a
	if perm != nil {
		if len(perm) != n {
			panic(fmt.Sprintf("factor: permutation length %d != %d", len(perm), n))
		}
		c = a.SymPerm(perm)
	}
	u := c.UpperTriangle()
	parent := etree(u)
	// Column counts via one ereach sweep: entry L(k,i) contributes to
	// column i; the diagonal contributes to column k.
	count := make([]int, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		count[k]++ // diagonal
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			count[s[top]]++
		}
	}
	colp := make([]int, n+1)
	for j := 0; j < n; j++ {
		colp[j+1] = colp[j] + count[j]
	}
	var p []int
	if perm != nil {
		p = append([]int(nil), perm...)
	}
	return &CholSymbolic{N: n, Perm: p, parent: parent, colp: colp, upper: u}
}

// LNNZ reports the number of nonzeros in the factor L.
func (s *CholSymbolic) LNNZ() int { return s.colp[s.N] }

// FlopEstimate returns the classic symbolic flop count of one numeric
// factorization, Σ_j |L(:,j)|² — the column-count squares dominate the
// up-looking solve's multiply-adds. It is a deterministic function of
// the pattern and permutation, which makes it a machine-independent
// cost metric for bench trajectories.
func (s *CholSymbolic) FlopEstimate() int64 {
	var fl int64
	for j := 0; j < s.N; j++ {
		c := int64(s.colp[j+1] - s.colp[j])
		fl += c * c
	}
	return fl
}

// FillRatio reports nnz(L)/nnz(lower(A)) — 1.0 means no fill-in. The
// denominator counts the upper triangle (diagonal included) of the
// analyzed pattern, which the symmetric pattern makes equal.
func (s *CholSymbolic) FillRatio() float64 {
	annz := s.upper.Colp[s.upper.Cols]
	if annz == 0 {
		return 0
	}
	return float64(s.LNNZ()) / float64(annz)
}

// CholFactor is a numeric Cholesky factorization P·A·Pᵀ = L·Lᵀ.
type CholFactor struct {
	Sym *CholSymbolic
	L   *sparse.Matrix // lower triangular, diagonal first in each column
}

// Factorize numerically factors a, which must have the same sparsity
// pattern (up to entries missing numerically) as the matrix analyzed.
// When reusing a symbolic object across matrices with identical
// structure, pass reuse = the previous factor to recycle its storage;
// otherwise pass nil.
func (sym *CholSymbolic) Factorize(a *sparse.Matrix, reuse *CholFactor) (*CholFactor, error) {
	pick := func(m *factorMetrics) *obs.Histogram { return m.chol }
	if reuse != nil {
		pick = func(m *factorMetrics) *obs.Histogram { return m.refactor }
	}
	defer observe(pick)()
	n := sym.N
	if a.Rows != n || a.Cols != n {
		return nil, fmt.Errorf("factor: Factorize matrix is %dx%d, analyzed %d", a.Rows, a.Cols, n)
	}
	c := a
	if sym.Perm != nil {
		c = a.SymPerm(sym.Perm)
	}
	u := c.UpperTriangle()
	var l *sparse.Matrix
	if reuse != nil && reuse.Sym == sym {
		l = reuse.L
		for i := range l.Val {
			l.Val[i] = 0
		}
	} else {
		l = &sparse.Matrix{
			Rows: n, Cols: n,
			Colp: append([]int(nil), sym.colp...),
			Rowi: make([]int, sym.LNNZ()),
			Val:  make([]float64, sym.LNNZ()),
		}
	}
	next := make([]int, n) // next free slot per column of L
	copy(next, sym.colp[:n])
	x := make([]float64, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		// Scatter the upper part of column k of the permuted matrix.
		top := ereach(u, k, sym.parent, s, w)
		x[k] = 0
		for p := u.Colp[k]; p < u.Colp[k+1]; p++ {
			if i := u.Rowi[p]; i <= k {
				x[i] = u.Val[p]
			}
		}
		d := x[k]
		x[k] = 0
		// Up-looking triangular solve along the row pattern.
		for ; top < n; top++ {
			i := s[top]
			lki := x[i] / l.Val[l.Colp[i]] // divide by L(i,i)
			x[i] = 0
			for p := l.Colp[i] + 1; p < next[i]; p++ {
				x[l.Rowi[p]] -= l.Val[p] * lki
			}
			d -= lki * lki
			p := next[i]
			next[i]++
			l.Rowi[p] = k
			l.Val[p] = lki
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, k, d)
		}
		p := next[k]
		next[k]++
		l.Rowi[p] = k
		l.Val[p] = math.Sqrt(d)
	}
	recordWork(sym.FlopEstimate(), sym.FillRatio())
	return &CholFactor{Sym: sym, L: l}, nil
}

// Cholesky is a convenience wrapper: analyze and factor in one call.
// Malformed shapes return errors here (they can originate in user
// input); CholAnalyze itself keeps its invariant panics for callers
// that have already validated.
func Cholesky(a *sparse.Matrix, perm []int) (*CholFactor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("factor: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if perm != nil && len(perm) != a.Rows {
		return nil, fmt.Errorf("factor: permutation length %d != %d", len(perm), a.Rows)
	}
	sym := CholAnalyze(a, perm)
	return sym.Factorize(a, nil)
}

// Solve solves A·x = b, overwriting nothing; the solution is returned in
// a new slice.
func (f *CholFactor) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into x (which may alias b). Scratch comes
// from a package pool, so the steady state allocates nothing; it is
// safe to call concurrently on a shared factor.
func (f *CholFactor) SolveTo(x, b []float64) {
	y := getScratch(f.Sym.N)
	f.SolveToWithScratch(x, b, *y)
	putScratch(y)
}

// SolveToWithScratch solves A·x = b into x using the caller-provided
// work vector y of length n. It performs no allocations, which makes it
// the right call in per-worker hot loops that own their scratch. x may
// alias b (b is fully consumed into y before x is written); y must not
// alias x or b.
func (f *CholFactor) SolveToWithScratch(x, b, y []float64) {
	n := f.Sym.N
	if len(b) != n || len(x) != n || len(y) != n {
		panic(fmt.Sprintf("factor: Solve length %d/%d/%d != %d", len(x), len(b), len(y), n))
	}
	if f.Sym.Perm != nil {
		sparse.PermVecTo(y, f.Sym.Perm, b)
	} else {
		copy(y, b)
	}
	LowerSolve(f.L, y)
	LowerTransposeSolve(f.L, y)
	if f.Sym.Perm != nil {
		sparse.InvPermVecTo(x, f.Sym.Perm, y)
	} else {
		copy(x, y)
	}
}

// LowerSolve solves L·x = b in place, where L is lower triangular in CSC
// form with the diagonal entry stored first in each column.
func LowerSolve(l *sparse.Matrix, x []float64) {
	for j := 0; j < l.Cols; j++ {
		x[j] /= l.Val[l.Colp[j]]
		xj := x[j]
		for p := l.Colp[j] + 1; p < l.Colp[j+1]; p++ {
			x[l.Rowi[p]] -= l.Val[p] * xj
		}
	}
}

// LowerTransposeSolve solves Lᵀ·x = b in place for the same L layout.
func LowerTransposeSolve(l *sparse.Matrix, x []float64) {
	for j := l.Cols - 1; j >= 0; j-- {
		s := x[j]
		for p := l.Colp[j] + 1; p < l.Colp[j+1]; p++ {
			s -= l.Val[p] * x[l.Rowi[p]]
		}
		x[j] = s / l.Val[l.Colp[j]]
	}
}
