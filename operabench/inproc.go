package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"opera/internal/core"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/montecarlo"
	"opera/internal/netlist"
)

// Paper-scale parameters of the in-process workloads: the largest row
// of EXPERIMENTS Table 1 (6800 nodes), the default Table-1 variation,
// 20 backward-Euler steps of 0.1 ns.
const (
	gridNodes = 6800
	step      = 1e-10
	steps     = 20

	coupledOrder = 2 // 6-term basis, augmented n = 40,800
	leakOrder    = 3 // 35-term basis over 4 regions
	leakSigma    = 0.6
	mcSamples    = 32

	// setupReps is how many times a run builds its inputs; setup_s is
	// the median.
	setupReps = 11
)

// fixture is one generated grid and its MNA stamp.
type fixture struct {
	spec grid.Spec
	nl   *netlist.Netlist
	sys  *mna.System
}

// buildFixture generates the seed's grid and stamps it with the given
// variation model.
func buildFixture(nodes int, seed int64, vs mna.VariationSpec) (*fixture, error) {
	spec := grid.DefaultSpec(nodes, seed)
	nl, err := grid.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	sys, err := mna.Build(nl, vs)
	if err != nil {
		return nil, fmt.Errorf("mna: %w", err)
	}
	return &fixture{spec: spec, nl: nl, sys: sys}, nil
}

// setupFixture builds the inputs setupReps times and returns the last
// fixture with the median build time in seconds.
func setupFixture(seed int64, vs mna.VariationSpec) (*fixture, float64, error) {
	var (
		fx    *fixture
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := buildFixture(gridNodes, seed, vs)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		fx = f
	}
	return fx, median(times), nil
}

// measured is what the timed loop of an in-process workload observed.
type measured struct {
	latMS     []float64
	allocs    uint64
	attempted int
	failed    int
}

// timedLoop runs op back to back until the next call, predicted from
// the last one, would end past the window (at least one call). Each
// call starts from a collected heap so its time does not depend on the
// garbage of the one before. after receives every successful output
// outside the timed region.
func timedLoop(window time.Duration, op func() (any, error), after func(any)) measured {
	var m measured
	start := time.Now()
	for {
		runtime.GC()
		a0 := heapAllocs()
		t0 := time.Now()
		out, err := op()
		d := time.Since(t0)
		m.allocs += heapAllocs() - a0
		m.attempted++
		if err != nil {
			m.failed++
		} else {
			m.latMS = append(m.latMS, ms(d))
			after(out)
		}
		if time.Since(start)+d > window {
			return m
		}
	}
}

// report fills the end-to-end metrics of an in-process run.
func (m measured) report(o *outcome, setupS float64) {
	o.attempted, o.failed = m.attempted, m.failed
	o.set("setup_s", "s", setupS)
	lat := median(m.latMS)
	o.set("latency_ms", "ms", lat)
	// A serial caller completes one analysis per latency.
	o.set("ops_per_s", "1/s", 1000/lat)
	o.set("alloc_mb_per_op", "MB", float64(m.allocs)/float64(m.attempted)/1e6)
	o.info["ops"] = len(m.latMS)
	o.info["latency_ms_all"] = m.latMS
}

// keepFirst keeps the first output and checks every later one against
// it: repeated analyses of one input must agree bit for bit.
func keepFirst(o *outcome) (after func(any), first func() any) {
	var kept any
	return func(out any) {
			if kept == nil {
				kept = out
				return
			}
			o.check("repeat", sameMoments(momentsOf(kept), momentsOf(out)))
		}, func() any {
			return kept
		}
}

// momentsOf returns the per-step, per-node mean and variance of an
// analysis output.
func momentsOf(v any) moments {
	switch r := v.(type) {
	case *core.Result:
		return moments{r.Mean, r.Variance}
	case *montecarlo.Result:
		return moments{r.Mean, r.Variance}
	}
	return moments{}
}

func coupledOptions() core.Options {
	return core.Options{Order: coupledOrder, Step: step, Steps: steps}
}

func runCoupled(seed int64, window time.Duration) (*outcome, error) {
	o := newOutcome()
	fx, setupS, err := setupFixture(seed, mna.DefaultSpec())
	if err != nil {
		return nil, err
	}
	after, first := keepFirst(o)
	m := timedLoop(window, func() (any, error) { return core.Analyze(fx.sys, coupledOptions()) }, after)
	m.report(o, setupS)
	res, _ := first().(*core.Result)
	if res == nil {
		return nil, fmt.Errorf("every analysis failed")
	}
	nominal, err := core.NominalRun(fx.sys, coupledOptions())
	if err != nil {
		return nil, fmt.Errorf("nominal run: %w", err)
	}
	checkCoupled(o, res, nominal)
	o.info["factor_flops"] = res.Galerkin.FactorFlops
	o.info["factor_nnz"] = res.Galerkin.FactorNNZ
	o.info["augmented_n"] = res.Galerkin.AugmentedN
	return o, nil
}

func leakageOptions(fx *fixture) core.LeakageOptions {
	return core.LeakageOptions{
		Regions: fx.spec.NumRegions(), SigmaLogI: leakSigma,
		Order: leakOrder, Step: step, Steps: steps,
	}
}

func runLeakage(seed int64, window time.Duration) (*outcome, error) {
	o := newOutcome()
	// The leakage operator is deterministic: the stamp carries no
	// sensitivities, and the reference check reuses it.
	fx, setupS, err := setupFixture(seed, mna.VariationSpec{})
	if err != nil {
		return nil, err
	}
	after, first := keepFirst(o)
	m := timedLoop(window, func() (any, error) { return core.AnalyzeLeakage(fx.nl, leakageOptions(fx)) }, after)
	m.report(o, setupS)
	res, _ := first().(*core.Result)
	if res == nil {
		return nil, fmt.Errorf("every analysis failed")
	}
	ref, err := leakageMeanReference(fx.sys)
	if err != nil {
		return nil, fmt.Errorf("reference transient: %w", err)
	}
	checkLeakage(o, res, ref)
	o.info["basis"] = res.Basis.Size()
	return o, nil
}

func runMC(seed int64, window time.Duration) (*outcome, error) {
	o := newOutcome()
	fx, setupS, err := setupFixture(seed, mna.DefaultSpec())
	if err != nil {
		return nil, err
	}
	mcSeed := seed*7919 + 17
	after, first := keepFirst(o)
	m := timedLoop(window, func() (any, error) {
		res, _, err := core.RunMC(fx.sys, coupledOptions(), mcSamples, mcSeed, nil)
		return res, err
	}, after)
	m.report(o, setupS)
	res, _ := first().(*montecarlo.Result)
	if res == nil {
		return nil, fmt.Errorf("every Monte Carlo run failed")
	}
	nominal, pceVar, err := mcReference(fx.sys)
	if err != nil {
		return nil, err
	}
	checkMC(o, res, nominal, pceVar, mcSamples)
	// sample_ms with coupled-6800's latency gives the paper's ratio:
	// 1000 × sample_ms ÷ coupled latency_ms.
	o.info["samples"] = mcSamples
	o.info["sample_ms"] = median(m.latMS) / mcSamples
	return o, nil
}

// mcReference returns what a Monte Carlo run is checked against: the
// nominal run µ0 and the coupled PCE variance of the same system.
func mcReference(sys *mna.System) (nominal, pceVar [][]float64, err error) {
	nominal, err = core.NominalRun(sys, coupledOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("nominal run: %w", err)
	}
	pce, err := core.Analyze(sys, coupledOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("coupled reference: %w", err)
	}
	return nominal, pce.Variance, nil
}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
