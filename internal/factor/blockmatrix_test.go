package factor

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"opera/internal/order"
	"opera/internal/sparse"
)

// randomBlockSPD builds a block matrix I⊗A + T⊗P where A is SPD
// dominant and T, P symmetric perturbations — the Galerkin shape.
func randomBlockSPD(rng *rand.Rand, n, b int) *BlockMatrix {
	return randomBlockSPDOn(rng, laplacian2D(1, n, 1.5), b) // path-graph SPD (n nodes)
}

// randomBlockSPDOn builds the Galerkin-shaped block matrix over the
// SPD node matrix a.
func randomBlockSPDOn(rng *rand.Rand, a *sparse.Matrix, b int) *BlockMatrix {
	// Random symmetric small perturbation with A's pattern.
	p := a.Clone()
	for i := range p.Val {
		p.Val[i] *= 0.2 * rng.Float64()
	}
	p = sparse.Add(0.5, p, 0.5, p.Transpose())
	// Coupling: identity and a random symmetric contraction.
	tId := sparse.Identity(b)
	td := make([][]float64, b)
	for i := range td {
		td[i] = make([]float64, b)
	}
	for i := 0; i < b; i++ {
		for j := 0; j <= i; j++ {
			v := 0.3 * rng.NormFloat64() / float64(b)
			td[i][j] = v
			td[j][i] = v
		}
	}
	tc := sparse.FromDense(td)
	bm := NewBlockMatrix(unionPattern(a, p), b)
	bm.AddTerm(tId, a)
	bm.AddTerm(tc, p)
	return bm
}

func unionPattern(a, b *sparse.Matrix) *sparse.Matrix {
	return sparse.Add(1, a, 1, b)
}

// mesh SPD helper shared with other factor tests (grid graph).
func blockTestMesh(rows, cols int, shift float64) *sparse.Matrix {
	return laplacian2D(rows, cols, shift)
}

func TestBlockMatrixMulVecMatchesCSC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bm := randomBlockSPD(rng, 12, 3)
	csc := bm.ToCSC()
	n := bm.N * bm.B
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	bm.MulVec(y1, x)
	csc.MulVec(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("MulVec mismatch at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

// blockFactor analyzes the block matrix's node pattern under perm and
// factors it straight from the blocks.
func blockFactor(t *testing.T, bm *BlockMatrix, perm []int, workers int) (*SuperSymbolic, *SuperFactor) {
	t.Helper()
	sym := CholAnalyzeSupernodal(nodePattern(bm), perm, -1, bm.B)
	f, err := sym.FactorizeBlock(bm, nil, workers)
	if err != nil {
		t.Fatalf("block factor (workers %d): %v", workers, err)
	}
	return sym, f
}

// nodePattern is the block matrix's n-node pattern as a scalar matrix.
func nodePattern(bm *BlockMatrix) *sparse.Matrix {
	return &sparse.Matrix{Rows: bm.N, Cols: bm.N, Colp: bm.Colp, Rowi: bm.Rowi,
		Val: make([]float64, len(bm.Rowi))}
}

// agreeWithOracle solves rhs through f and through the scalar
// Cholesky of the expanded matrix, failing past tol (relative).
func agreeWithOracle(t *testing.T, bm *BlockMatrix, f *SuperFactor, rhs []float64, tol float64) {
	t.Helper()
	oracle, err := Cholesky(bm.ToCSC(), nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	x := make([]float64, len(rhs))
	f.SolveTo(x, rhs)
	want := oracle.Solve(rhs)
	for i := range x {
		if math.Abs(x[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("solution differs from the scalar oracle at %d: %g vs %g", i, x[i], want[i])
		}
	}
}

func TestBlockCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		b := 1 + rng.Intn(5)
		bm := randomBlockSPD(rng, n, b)
		csc := bm.ToCSC()
		if !csc.IsSymmetric(1e-10) {
			t.Fatal("test matrix not symmetric")
		}
		_, f := blockFactor(t, bm, nil, 1+trial%3)
		rhs := make([]float64, n*b)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		agreeWithOracle(t, bm, f, rhs, 1e-10)
		x := make([]float64, n*b)
		f.SolveTo(x, rhs)
		r := make([]float64, n*b)
		csc.MulVec(r, x)
		for i := range r {
			if math.Abs(r[i]-rhs[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %g at %d", trial, r[i]-rhs[i], i)
			}
		}
	}
}

func TestBlockCholeskyWithPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 2D mesh pattern with blocks.
	a := blockTestMesh(6, 7, 0.8)
	bm := NewBlockMatrix(a, 4)
	bm.AddTerm(sparse.Identity(4), a)
	pert := a.Clone()
	for i := range pert.Val {
		pert.Val[i] *= 0.1
	}
	coup := sparse.FromDense([][]float64{
		{0, 1, 0, 0}, {1, 0, 1, 0}, {0, 1, 0, 1}, {0, 0, 1, 0},
	})
	bm.AddTerm(coup, pert)
	perm := order.NestedDissection(order.NewGraph(a), 4)
	sym, f := blockFactor(t, bm, perm, 1)
	symNat, fNat := blockFactor(t, bm, nil, 1)
	n := bm.N * bm.B
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	agreeWithOracle(t, bm, f, rhs, 1e-10)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	f.SolveTo(x1, rhs)
	fNat.SolveTo(x2, rhs)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
			t.Fatalf("permuted solve differs at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
	if sym.LNNZ() >= symNat.LNNZ() {
		t.Logf("note: ND fill %d vs natural %d", sym.LNNZ(), symNat.LNNZ())
	}
}

func TestBlockCholeskyBlockSizeOne(t *testing.T) {
	// B = 1 is the scalar analysis: same factor as the scalar kernel.
	a := blockTestMesh(5, 5, 0.3)
	bm := NewBlockMatrix(a, 1)
	bm.AddTerm(sparse.Identity(1), a)
	perm := order.AMD(order.NewGraph(a))
	sym, f := blockFactor(t, bm, perm, 1)
	sf, err := Cholesky(a, sym.Permutation())
	if err != nil {
		t.Fatal(err)
	}
	if sym.LNNZ() != sf.Sym.LNNZ() || sym.FlopEstimate() != sf.Sym.FlopEstimate() || sym.FillRatio() != sf.Sym.FillRatio() {
		t.Errorf("B=1 cost model diverges from the scalar kernel")
	}
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	x1 := make([]float64, a.Rows)
	f.SolveTo(x1, rhs)
	x2 := sf.Solve(rhs)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-10 {
			t.Fatalf("B=1 mismatch at %d", i)
		}
	}
}

func TestBlockCholeskyNotPD(t *testing.T) {
	a := sparse.FromDense([][]float64{{1, 0}, {0, 1}})
	bm := NewBlockMatrix(a, 2)
	// Indefinite coupling makes an indefinite block diagonal.
	coup := sparse.FromDense([][]float64{{1, 2}, {2, 1}})
	bm.AddTerm(coup, a)
	sym := CholAnalyzeSupernodal(nodePattern(bm), nil, -1, 2)
	if _, err := sym.FactorizeBlock(bm, nil, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite block matrix: err %v", err)
	}
}

func TestBlockSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bm := randomBlockSPD(rng, 10, 3)
	_, f := blockFactor(t, bm, nil, 1)
	rhs := make([]float64, bm.N*bm.B)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), rhs...)
	f.SolveTo(rhs, rhs)
	r := make([]float64, len(rhs))
	bm.MulVec(r, rhs)
	for i := range r {
		if math.Abs(r[i]-orig[i]) > 1e-8 {
			t.Fatalf("aliased solve residual %g", r[i]-orig[i])
		}
	}
}

// TestBlockFactorMatchesExpandedAnalysis: on dense blocks, the
// block-built analysis has the exact pattern and cost model of the
// scalar analysis of the expanded matrix under the expanded
// permutation, and the same L to rounding.
func TestBlockFactorMatchesExpandedAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := blockTestMesh(7, 6, 0.4)
	const b = 3
	bm := NewBlockMatrix(a, b)
	dense := make([][]float64, b)
	for i := range dense {
		dense[i] = make([]float64, b)
		for j := range dense[i] {
			dense[i][j] = 0.05 * (1 + rng.Float64())
		}
	}
	for i := 0; i < b; i++ {
		for j := 0; j < i; j++ {
			dense[i][j] = dense[j][i]
		}
		dense[i][i] = 1
	}
	bm.AddTerm(sparse.FromDense(dense), a)
	sym, f := blockFactor(t, bm, order.AMD(order.NewGraph(a)), 1)
	ref, err := Cholesky(bm.ToCSC(), sym.Permutation())
	if err != nil {
		t.Fatal(err)
	}
	if sym.LNNZ() != ref.Sym.LNNZ() || sym.FlopEstimate() != ref.Sym.FlopEstimate() {
		t.Fatalf("cost model: nnz %d vs %d, flops %d vs %d",
			sym.LNNZ(), ref.Sym.LNNZ(), sym.FlopEstimate(), ref.Sym.FlopEstimate())
	}
	if d := sym.FillRatio() - ref.Sym.FillRatio(); math.Abs(d) > 1e-12 {
		t.Errorf("fill ratio %g vs %g", sym.FillRatio(), ref.Sym.FillRatio())
	}
	l := f.L()
	for p := range l.Rowi {
		if l.Rowi[p] != ref.L.Rowi[p] {
			t.Fatalf("L pattern mismatch at entry %d", p)
		}
		if d := math.Abs(l.Val[p] - ref.L.Val[p]); d > 1e-10*(1+math.Abs(ref.L.Val[p])) {
			t.Fatalf("L value mismatch at entry %d: %g vs %g", p, l.Val[p], ref.L.Val[p])
		}
	}
}

// TestBlockFactorDeterminism: a block system whose root supernode is
// large enough to be split by rows across the pool factors to the same
// bits at every worker count, and solves to the same bits.
func TestBlockFactorDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := blockTestMesh(36, 36, 0.2)
	bm := randomBlockSPDOn(rng, a, 6)
	perm := order.AMD(order.NewGraph(a))
	sym, ref := blockFactor(t, bm, perm, 1)
	if sym.SplitSupernodes() == 0 {
		t.Fatalf("no supernode reaches the split size (largest panel %d)", sym.maxRows*sym.maxWidth)
	}
	rhs := make([]float64, sym.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	xRef := ref.Solve(rhs)
	agreeWithOracle(t, bm, ref, rhs, 1e-10)
	for _, workers := range []int{2, 4} {
		_, f := blockFactor(t, bm, perm, workers)
		for i := range f.val {
			if math.Float64bits(f.val[i]) != math.Float64bits(ref.val[i]) {
				t.Fatalf("workers %d: panel[%d] differs bitwise", workers, i)
			}
		}
		x := f.Solve(rhs)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
				t.Fatalf("workers %d: solution[%d] differs bitwise", workers, i)
			}
		}
	}
}

// TestBlockFactorPatternMismatch: a matrix with an entry outside the
// analyzed pattern is refused, not silently mis-scattered.
func TestBlockFactorPatternMismatch(t *testing.T) {
	diag := sparse.Identity(3)
	full := sparse.FromDense([][]float64{{4, 1, 1}, {1, 4, 1}, {1, 1, 4}})
	sym := CholAnalyzeSupernodal(diag, nil, 0, 2)
	bm := NewBlockMatrix(full, 2)
	bm.AddTerm(sparse.Identity(2), full)
	if _, err := sym.FactorizeBlock(bm, nil, 1); err == nil {
		t.Error("entry outside the analyzed pattern accepted")
	}
}

func TestAddTermRejectsOutsidePattern(t *testing.T) {
	small := sparse.FromDense([][]float64{{1, 0}, {0, 1}})
	big := sparse.FromDense([][]float64{{1, 1}, {1, 1}})
	bm := NewBlockMatrix(small, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-pattern term")
		}
	}()
	bm.AddTerm(sparse.Identity(2), big)
}
