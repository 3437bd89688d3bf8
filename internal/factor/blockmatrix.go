package factor

import (
	"fmt"
	"math"

	"opera/internal/parallel"
	"opera/internal/sparse"
)

// BlockMatrix is a square block-sparse matrix: a scalar n×n CSC sparsity
// pattern whose every stored entry is a dense B×B block (row-major
// within the block). This is exactly the structure of the stochastic
// Galerkin matrices (Eq. 19–21): one block per grid-node pair, the block
// holding the chaos-coupling pattern. The supernodal analysis of the
// n-node pattern (CholAnalyzeSupernodal with block size B) keeps the
// elimination tree and fill of the *scalar* grid pattern, with dense
// B×B arithmetic inside — the property the paper's §5.2 sparsity
// observation points at — and FactorizeBlock reads the blocks directly.
type BlockMatrix struct {
	N, B int
	Colp []int
	Rowi []int
	Val  []float64 // len NNZ·B², blocks in CSC slot order
}

// NewBlockMatrix builds a zero block matrix with the given scalar
// pattern (must have sorted columns).
func NewBlockMatrix(pattern *sparse.Matrix, b int) *BlockMatrix {
	if pattern.Rows != pattern.Cols {
		panic("factor: block matrix pattern must be square")
	}
	return &BlockMatrix{
		N:    pattern.Rows,
		B:    b,
		Colp: append([]int(nil), pattern.Colp...),
		Rowi: append([]int(nil), pattern.Rowi...),
		Val:  make([]float64, pattern.NNZ()*b*b),
	}
}

// AddTerm accumulates coupling ⊗ a into the block matrix: for every
// scalar entry a(i,j) and every coupling entry T(m1,m2), block (i,j)
// gains T(m1,m2)·a(i,j). The scalar pattern of a must be contained in
// the block matrix's pattern. coupling is B×B.
func (bm *BlockMatrix) AddTerm(coupling, a *sparse.Matrix) {
	B := bm.B
	if coupling.Rows != B || coupling.Cols != B {
		panic(fmt.Sprintf("factor: coupling is %dx%d, want %dx%d", coupling.Rows, coupling.Cols, B, B))
	}
	if a.Rows != bm.N || a.Cols != bm.N {
		panic(fmt.Sprintf("factor: term is %dx%d, want %d", a.Rows, a.Cols, bm.N))
	}
	// Flatten the coupling for the inner loop.
	type centry struct {
		off int
		v   float64
	}
	var cents []centry
	for m2 := 0; m2 < B; m2++ {
		for p := coupling.Colp[m2]; p < coupling.Colp[m2+1]; p++ {
			cents = append(cents, centry{off: coupling.Rowi[p]*B + m2, v: coupling.Val[p]})
		}
	}
	for j := 0; j < bm.N; j++ {
		pa := a.Colp[j]
		ea := a.Colp[j+1]
		pb := bm.Colp[j]
		eb := bm.Colp[j+1]
		for pa < ea {
			i := a.Rowi[pa]
			// Locate slot (i, j) in the block pattern (both sorted).
			for pb < eb && bm.Rowi[pb] < i {
				pb++
			}
			if pb == eb || bm.Rowi[pb] != i {
				panic(fmt.Sprintf("factor: term entry (%d,%d) outside block pattern", i, j))
			}
			base := pb * B * B
			av := a.Val[pa]
			for _, ce := range cents {
				bm.Val[base+ce.off] += ce.v * av
			}
			pa++
		}
	}
}

// MulVec computes y = M·x for node-major vectors (x[i·B+m]).
func (bm *BlockMatrix) MulVec(y, x []float64) {
	B := bm.B
	if len(x) != bm.N*B || len(y) != bm.N*B {
		panic(fmt.Sprintf("factor: block MulVec lengths %d/%d want %d", len(y), len(x), bm.N*B))
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < bm.N; j++ {
		xj := x[j*B : (j+1)*B]
		for p := bm.Colp[j]; p < bm.Colp[j+1]; p++ {
			i := bm.Rowi[p]
			blk := bm.Val[p*B*B : (p+1)*B*B]
			yi := y[i*B : (i+1)*B]
			for r := 0; r < B; r++ {
				s := 0.0
				row := blk[r*B : r*B+B]
				for c := 0; c < B; c++ {
					s += row[c] * xj[c]
				}
				yi[r] += s
			}
		}
	}
}

// mulVecSymBlockChunk is the block-row granularity of
// BlockMatrix.MulVecSym; each entry costs B² multiplies, so chunks are
// smaller than the scalar equivalent.
const mulVecSymBlockChunk = 64

// MulVecSym computes y = M·x for a *symmetric* block matrix (the
// Galerkin operators: symmetric coupling tensors over symmetric node
// matrices), row-partitioned across up to `workers` goroutines. By
// symmetry block (i,j) equals the stored block (j,i) transposed, so
// block-row i is a gather over stored column i:
//
//	y_i = Σ_p Block(p)ᵀ · x_{Rowi[p]}  over column i
//
// Each y_i is produced whole by one worker in a fixed order, so the
// result is bit-identical for any worker count (though it associates
// differently from the scatter-form MulVec — callers that need
// worker-count invariance must use one form consistently).
func (bm *BlockMatrix) MulVecSym(y, x []float64, workers int) {
	B := bm.B
	if len(x) != bm.N*B || len(y) != bm.N*B {
		panic(fmt.Sprintf("factor: block MulVecSym lengths %d/%d want %d", len(y), len(x), bm.N*B))
	}
	bb := B * B
	gather := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yi := y[i*B : (i+1)*B]
			for r := range yi {
				yi[r] = 0
			}
			for p := bm.Colp[i]; p < bm.Colp[i+1]; p++ {
				j := bm.Rowi[p]
				blk := bm.Val[p*bb : (p+1)*bb]
				xj := x[j*B : (j+1)*B]
				// y_i += Block(p)ᵀ · x_j
				for c := 0; c < B; c++ {
					xc := xj[c]
					row := blk[c*B : c*B+B]
					for r := 0; r < B; r++ {
						yi[r] += row[r] * xc
					}
				}
			}
		}
	}
	if workers <= 1 || bm.N <= mulVecSymBlockChunk {
		gather(0, bm.N)
		return
	}
	chunks := (bm.N + mulVecSymBlockChunk - 1) / mulVecSymBlockChunk
	// Chunks write disjoint block rows of y; errors are impossible here.
	_ = parallel.ForEach(workers, chunks, func(_, c int) error {
		lo := c * mulVecSymBlockChunk
		hi := lo + mulVecSymBlockChunk
		if hi > bm.N {
			hi = bm.N
		}
		gather(lo, hi)
		return nil
	})
}

// NormInf returns the ∞-norm (maximum absolute row sum) of the block
// matrix, used to scale residual verification.
func (bm *BlockMatrix) NormInf() float64 {
	B := bm.B
	rowSum := make([]float64, bm.N*B)
	for j := 0; j < bm.N; j++ {
		for p := bm.Colp[j]; p < bm.Colp[j+1]; p++ {
			i := bm.Rowi[p]
			blk := bm.Val[p*B*B : (p+1)*B*B]
			for r := 0; r < B; r++ {
				s := 0.0
				for c := 0; c < B; c++ {
					s += math.Abs(blk[r*B+c])
				}
				rowSum[i*B+r] += s
			}
		}
	}
	m := 0.0
	for _, s := range rowSum {
		if s > m {
			m = s
		}
	}
	return m
}

// ToCSC expands the block matrix into a scalar CSC matrix with
// node-major indexing (global index i·B+m) — for tests and the LU,
// scalar-kernel and IC(0) ladder rungs.
func (bm *BlockMatrix) ToCSC() *sparse.Matrix {
	B := bm.B
	t := sparse.NewTriplet(bm.N*B, bm.N*B, bm.Colp[bm.N]*B*B)
	for j := 0; j < bm.N; j++ {
		for p := bm.Colp[j]; p < bm.Colp[j+1]; p++ {
			i := bm.Rowi[p]
			blk := bm.Val[p*B*B : (p+1)*B*B]
			for r := 0; r < B; r++ {
				for c := 0; c < B; c++ {
					if v := blk[r*B+c]; v != 0 {
						t.Add(i*B+r, j*B+c, v)
					}
				}
			}
		}
	}
	return t.Compile()
}
