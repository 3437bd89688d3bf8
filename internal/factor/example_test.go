package factor_test

import (
	"fmt"

	"opera/internal/factor"
	"opera/internal/sparse"
)

// ExampleCholesky solves a small SPD system.
func ExampleCholesky() {
	a := sparse.FromDense([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	})
	f, err := factor.Cholesky(a, nil)
	if err != nil {
		panic(err)
	}
	x := f.Solve([]float64{3, 2, 3})
	fmt.Printf("x = [%.3f %.3f %.3f]\n", x[0], x[1], x[2])
	// Output:
	// x = [1.000 1.000 1.000]
}

// ExampleCholSymbolic_Factorize shows the Monte Carlo pattern: one
// symbolic analysis, many numeric refactorizations sharing storage.
func ExampleCholSymbolic_Factorize() {
	a := sparse.FromDense([][]float64{{4, -1}, {-1, 4}})
	sym := factor.CholAnalyze(a, nil)
	f1, _ := sym.Factorize(a, nil)
	// A scaled sample (same pattern) recycles f1's storage.
	a2 := a.Clone().Scale(2)
	f2, _ := sym.Factorize(a2, f1)
	x := f2.Solve([]float64{6, 6})
	fmt.Printf("x = [%.0f %.0f]\n", x[0], x[1])
	// Output:
	// x = [1 1]
}

// ExampleSuperSymbolic_FactorizeBlock factors a block-augmented
// system: a 2-node grid pattern whose entries are 2×2 chaos blocks.
// The analysis runs on the node pattern with block size 2; the factor
// reads the blocks directly.
func ExampleSuperSymbolic_FactorizeBlock() {
	pattern := sparse.FromDense([][]float64{{1, 1}, {1, 1}})
	bm := factor.NewBlockMatrix(pattern, 2)
	ga := sparse.FromDense([][]float64{{4, -1}, {-1, 4}})
	gg := sparse.FromDense([][]float64{{0.4, -0.1}, {-0.1, 0.4}})
	bm.AddTerm(sparse.Identity(2), ga)                            // mean term
	bm.AddTerm(sparse.FromDense([][]float64{{0, 1}, {1, 0}}), gg) // ξ coupling
	sym := factor.CholAnalyzeSupernodal(pattern, nil, -1, 2)
	f, err := sym.FactorizeBlock(bm, nil, 1)
	if err != nil {
		panic(err)
	}
	rhs := []float64{1, 0, 1, 0} // node-major: (node0: c0,c1), (node1: c0,c1)
	x := make([]float64, 4)
	f.SolveTo(x, rhs)
	r := make([]float64, 4)
	bm.MulVec(r, x)
	fmt.Printf("residual[0] = %.1e\n", r[0]-rhs[0])
	// Output:
	// residual[0] = 0.0e+00
}
