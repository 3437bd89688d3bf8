package galerkin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opera/internal/factor"
	"opera/internal/sparse"
)

// TestBlockAndFlatAssemblyAgree cross-validates the two independent
// augmented-matrix construction paths: factor.BlockMatrix (node-major,
// used by the solver) and sparse.AssembleBlocks (coefficient-major,
// Eq. 19 reference). The same random term set must produce the same
// matrix up to the block-layout permutation.
func TestBlockAndFlatAssemblyAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)  // nodes
		bs := 2 + rng.Intn(4) // basis size
		// Random symmetric node pattern with diagonal.
		tr := sparse.NewTriplet(n, n, 3*n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 1+rng.Float64())
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					v := rng.NormFloat64()
					tr.Add(i, j, v)
					tr.Add(j, i, v)
				}
			}
		}
		a1 := tr.Compile()
		a2 := a1.Clone()
		for i := range a2.Val {
			a2.Val[i] *= 0.3 * rng.NormFloat64()
		}
		a2 = sparse.Add(0.5, a2, 0.5, a2.Transpose())
		// Random symmetric couplings.
		randCoupling := func(identity bool) *sparse.Matrix {
			if identity {
				return sparse.Identity(bs)
			}
			d := make([][]float64, bs)
			for i := range d {
				d[i] = make([]float64, bs)
			}
			for i := 0; i < bs; i++ {
				for j := 0; j <= i; j++ {
					if rng.Float64() < 0.6 {
						v := rng.NormFloat64()
						d[i][j], d[j][i] = v, v
					}
				}
			}
			return sparse.FromDense(d)
		}
		t1 := randCoupling(true)
		t2 := randCoupling(false)

		// Path 1: block matrix on the union scalar pattern.
		pattern := sparse.Add(1, a1, 1, a2)
		bm := factor.NewBlockMatrix(pattern, bs)
		bm.AddTerm(t1, a1)
		bm.AddTerm(t2, a2)
		nodeMajor := bm.ToCSC() // index = node·bs + m

		// Path 2: Kronecker assembly (coefficient-major: m·n + node).
		flat := sparse.AssembleBlocks(bs, n, []sparse.BlockTerm{
			{T: t1, A: a1}, {T: t2, A: a2},
		})
		// Compare under the layout permutation.
		for i := 0; i < n*bs; i++ {
			for j := 0; j < n*bs; j++ {
				ni, mi := i/bs, i%bs
				nj, mj := j/bs, j%bs
				want := flat.At(mi*n+ni, mj*n+nj)
				got := nodeMajor.At(i, j)
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBlockCholeskyAgreesWithFlatCholesky solves the same random SPD
// augmented system through the supernodal factor built from the blocks
// and through a scalar Cholesky of the flattened matrix (the oracle).
func TestBlockCholeskyAgreesWithFlatCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(8)
		bs := 2 + rng.Intn(3)
		// SPD mean matrix: Laplacian-like.
		tr := sparse.NewTriplet(n, n, 4*n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 3)
			if i+1 < n {
				tr.Add(i, i+1, -1)
				tr.Add(i+1, i, -1)
			}
		}
		a := tr.Compile()
		pert := a.Clone().Scale(0.05)
		coup := make([][]float64, bs)
		for i := range coup {
			coup[i] = make([]float64, bs)
		}
		for i := 0; i < bs; i++ {
			for j := 0; j <= i; j++ {
				v := 0.3 * rng.NormFloat64()
				coup[i][j], coup[j][i] = v, v
			}
		}
		tc := sparse.FromDense(coup)
		bm := factor.NewBlockMatrix(a, bs)
		bm.AddTerm(sparse.Identity(bs), a)
		bm.AddTerm(tc, pert)
		bf, err := factor.CholAnalyzeSupernodal(a, nil, -1, bs).FactorizeBlock(bm, nil, 1+trial%2)
		if err != nil {
			t.Fatalf("trial %d: block: %v", trial, err)
		}
		flatCSC := bm.ToCSC()
		sf, err := factor.Cholesky(flatCSC, nil)
		if err != nil {
			t.Fatalf("trial %d: flat: %v", trial, err)
		}
		rhs := make([]float64, n*bs)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x1 := bf.Solve(rhs)
		x2 := sf.Solve(rhs)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-10*(1+math.Abs(x2[i])) {
				t.Fatalf("trial %d: solutions differ at %d: %g vs %g", trial, i, x1[i], x2[i])
			}
		}
	}
}
