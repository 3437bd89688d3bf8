package galerkin

import (
	"fmt"

	"opera/internal/factor"
	"opera/internal/iterative"
	"opera/internal/numguard"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// This file wires the numguard escalation ladder into the Galerkin
// solve paths. Rung order (most economical first, per the numguard
// design): Cholesky → sparse LU with a pivot-growth acceptance check →
// IC(0)-preconditioned CG as the last resort. The Cholesky rung runs
// the supernodal kernel ("supernodal"), which factors a block system
// straight from its blocks; Options.Kernel == KernelScalar swaps in
// the scalar up-looking kernel ("cholesky", on the expanded CSC for a
// block system) as the ablation, and ForceLU drops the rung. Every
// factorization is attempted lazily: a healthy run never expands the
// block matrix to CSC at all.

// factorStats receives the cost facts of the first successful direct
// factorization of a ladder: scalar nonzero count, symbolic flop
// estimate, and fill ratio nnz(L)/nnz(lower(A)) of the scalar system
// the rung factors. A later escalation overwrites them (the costlier
// factor is the one the solve ran on).
type factorStats struct {
	nnz   int
	flops int64
	fill  float64
}

func (st *factorStats) set(nnz int, flops int64, fill float64) {
	if st == nil {
		return
	}
	st.nnz = nnz
	st.flops = flops
	st.fill = fill
}

// cholRungName names the Cholesky rung the kernel selects.
func cholRungName(kernel factor.Kernel) string {
	if kernel == factor.KernelScalar {
		return "cholesky"
	}
	return "supernodal"
}

// scalarRungs builds the ladder rungs for a scalar (n×n) system
// matrix: Cholesky (kernel-selected) → lu (pivot-growth checked) →
// cg+ic0. forceLU drops the Cholesky rung. workers caps the supernodal
// factorization's task pool — the factor is bit-identical for every
// value. st, when non-nil, receives the factor's cost facts on each
// successful direct factorization.
func scalarRungs(a *sparse.Matrix, perm []int, kernel factor.Kernel, workers int, cfg numguard.Config, forceLU bool, st *factorStats) []numguard.Rung {
	cfg = cfg.WithDefaults()
	var rungs []numguard.Rung
	if !forceLU {
		rungs = append(rungs, numguard.Rung{Name: cholRungName(kernel), Prepare: func() (numguard.Solver, error) {
			sym := factor.Analyze(a, perm, kernel)
			if ss, ok := sym.(*factor.SuperSymbolic); ok {
				ss.Workers = parallel.Workers(workers)
			}
			f, err := sym.Refactorize(a, nil)
			if err != nil {
				return nil, err
			}
			st.set(sym.LNNZ(), sym.FlopEstimate(), sym.FillRatio())
			return f, nil
		}})
	}
	rungs = append(rungs,
		luRung(func() (*sparse.Matrix, []int) { return a, perm }, cfg.PivotGrowthMax, st),
		cgRung(a, func() *sparse.Matrix { return a }),
	)
	return rungs
}

// blockRungs builds the ladder rungs for a block companion matrix
// whose node pattern sym analyzes (block size m.B, node permutation
// perm): supernodal straight from the blocks → lu → cg+ic0. The CSC
// expansion and the expanded permutation are computed at most once,
// and only when a rung past the first needs them (or the scalar
// kernel was forced).
func blockRungs(m *factor.BlockMatrix, sym *factor.SuperSymbolic, perm []int, kernel factor.Kernel, workers int, cfg numguard.Config, forceLU bool, st *factorStats) []numguard.Rung {
	cfg = cfg.WithDefaults()
	var csc *sparse.Matrix
	var scalPerm []int
	expand := func() (*sparse.Matrix, []int) {
		if csc == nil {
			csc = m.ToCSC()
			scalPerm = factor.ExpandPerm(perm, m.B)
		}
		return csc, scalPerm
	}
	var rungs []numguard.Rung
	if !forceLU {
		rungs = append(rungs, numguard.Rung{Name: cholRungName(kernel), Prepare: func() (numguard.Solver, error) {
			if kernel == factor.KernelScalar {
				a, p := expand()
				f, err := factor.Cholesky(a, p)
				if err != nil {
					return nil, err
				}
				st.set(f.Sym.LNNZ(), f.Sym.FlopEstimate(), f.Sym.FillRatio())
				return f, nil
			}
			f, err := sym.FactorizeBlock(m, nil, parallel.Workers(workers))
			if err != nil {
				return nil, err
			}
			st.set(sym.LNNZ(), sym.FlopEstimate(), sym.FillRatio())
			return f, nil
		}})
	}
	rungs = append(rungs,
		luRung(expand, cfg.PivotGrowthMax, st),
		cgRung(m, func() *sparse.Matrix { a, _ := expand(); return a }),
	)
	return rungs
}

// luRung factors with partial-pivoting LU and rejects factors whose
// element growth signals lost backward stability.
func luRung(mat func() (*sparse.Matrix, []int), growthMax float64, st *factorStats) numguard.Rung {
	return numguard.Rung{Name: "lu", Prepare: func() (numguard.Solver, error) {
		a, perm := mat()
		f, err := factor.LU(a, perm)
		if err != nil {
			return nil, err
		}
		if g := f.PivotGrowth(a); g > growthMax {
			return nil, fmt.Errorf("pivot growth %.3g exceeds %.3g", g, growthMax)
		}
		// nnz(L)/nnz(lower(A)), as on the Cholesky rungs: without row
		// exchanges LU's L has the Cholesky factor's pattern.
		lower := 0
		for j := 0; j < a.Cols; j++ {
			for p := a.Colp[j]; p < a.Colp[j+1]; p++ {
				if a.Rowi[p] >= j {
					lower++
				}
			}
		}
		fill := 0.0
		if lower > 0 {
			fill = float64(f.L.NNZ()) / float64(lower)
		}
		st.set(f.NNZ(), f.FlopEstimate(), fill)
		return f, nil
	}}
}

// cgRung is the last resort: IC(0)-preconditioned conjugate gradients,
// cold-started per solve. Convergence failures are left to the ladder's
// residual verification — the rung never returns an unverified answer
// as success.
func cgRung(op iterative.Operator, mat func() *sparse.Matrix) numguard.Rung {
	return numguard.Rung{Name: "cg+ic0", Prepare: func() (numguard.Solver, error) {
		pre, err := iterative.NewIC0(mat())
		if err != nil {
			return nil, fmt.Errorf("IC(0) preconditioner: %w", err)
		}
		return numguard.SolverFunc(func(x, b []float64) {
			// Copy b first: callers may alias x and b, and CG needs a
			// zeroed cold start.
			rhs := append([]float64(nil), b...)
			for i := range x {
				x[i] = 0
			}
			// The error is deliberately dropped: the ladder verifies the
			// residual of whatever CG produced and diagnoses on failure.
			_, _ = iterative.CG(op, x, rhs, iterative.CGOptions{Tol: 1e-12, MaxIter: 20 * len(b), M: pre})
		}), nil
	}}
}
