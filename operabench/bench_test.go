package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"opera/internal/core"
	"opera/internal/mna"
	"opera/internal/service"
)

// The tests run the checks on grids smaller than the benchmark's 6800
// nodes so they stay short; every benchmark run checks its own
// full-size outputs.
const testNodes = 1000

// benchSeeds are the seeds the benchmark was tuned on; heldOutSeed was
// used for nothing else.
var (
	benchSeeds  = []int64{1, 2, 3}
	heldOutSeed = int64(90017)
)

func allSeeds() []int64 { return append(append([]int64(nil), benchSeeds...), heldOutSeed) }

// requireCorrect fails the test with the outcome's problems.
func requireCorrect(t *testing.T, o *outcome) {
	t.Helper()
	if !o.correct {
		t.Fatalf("checks failed: %v", o.problems)
	}
}

// requireFails runs a check on a perturbed output and fails the test
// if the check passes.
func requireFails(t *testing.T, name string, run func(o *outcome)) {
	t.Helper()
	o := newOutcome()
	run(o)
	if o.correct {
		t.Errorf("%s: check passed on a perturbed output", name)
	}
}

func coupledAt(t *testing.T, seed int64) (*core.Result, [][]float64) {
	t.Helper()
	fx, err := buildFixture(testNodes, seed, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(fx.sys, coupledOptions())
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := core.NominalRun(fx.sys, coupledOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res, nominal
}

func copyGrid(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

func TestCoupledChecks(t *testing.T) {
	for _, seed := range allSeeds() {
		res, nominal := coupledAt(t, seed)
		o := newOutcome()
		checkCoupled(o, res, nominal)
		requireCorrect(t, o)
	}
	res, nominal := coupledAt(t, heldOutSeed)
	perturbed := func(edit func(r *core.Result)) func(o *outcome) {
		return func(o *outcome) {
			r := *res
			r.Mean, r.Variance = copyGrid(res.Mean), copyGrid(res.Variance)
			edit(&r)
			checkCoupled(o, &r, nominal)
		}
	}
	requireFails(t, "mean shifted by 0.05% of VDD", perturbed(func(r *core.Result) {
		for s := range r.Mean {
			for i := range r.Mean[s] {
				r.Mean[s][i] += 5e-4 * r.VDD
			}
		}
	}))
	requireFails(t, "one mean off by 1% of VDD", perturbed(func(r *core.Result) { r.Mean[3][7] -= 0.01 * r.VDD }))
	requireFails(t, "negative variance", perturbed(func(r *core.Result) { r.Variance[2][5] = -1e-12 }))
	requireFails(t, "variance quadrupled", perturbed(func(r *core.Result) {
		for s := range r.Variance {
			for i := range r.Variance[s] {
				r.Variance[s][i] *= 4
			}
		}
	}))
}

func TestLeakageChecks(t *testing.T) {
	for _, seed := range allSeeds() {
		fx, err := buildFixture(testNodes, seed, mna.VariationSpec{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AnalyzeLeakage(fx.nl, leakageOptions(fx))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := leakageMeanReference(fx.sys)
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		checkLeakage(o, res, ref)
		requireCorrect(t, o)
		if seed != heldOutSeed {
			continue
		}
		requireFails(t, "mean off by 1 µV", func(o *outcome) {
			r := *res
			r.Mean = copyGrid(res.Mean)
			r.Mean[10][3] += 1e-6
			checkLeakage(o, &r, ref)
		})
		requireFails(t, "coupled path taken", func(o *outcome) {
			r := *res
			r.Galerkin.Decoupled = false
			checkLeakage(o, &r, ref)
		})
		requireFails(t, "NaN variance", func(o *outcome) {
			r := *res
			r.Variance = copyGrid(res.Variance)
			r.Variance[4][4] = math.NaN()
			checkLeakage(o, &r, ref)
		})
	}
}

func TestMCChecks(t *testing.T) {
	for _, seed := range allSeeds() {
		fx, err := buildFixture(testNodes, seed, mna.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		mc, _, err := core.RunMC(fx.sys, coupledOptions(), mcSamples, seed*7919+17, nil)
		if err != nil {
			t.Fatal(err)
		}
		nominal, pceVar, err := mcReference(fx.sys)
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		checkMC(o, mc, nominal, pceVar, mcSamples)
		requireCorrect(t, o)
		if seed != heldOutSeed {
			continue
		}
		requireFails(t, "a sample missing", func(o *outcome) {
			r := *mc
			r.SamplesRun--
			checkMC(o, &r, nominal, pceVar, mcSamples)
		})
		requireFails(t, "mean shifted by ten standard errors", func(o *outcome) {
			r := *mc
			r.Mean = copyGrid(mc.Mean)
			for s := range r.Mean {
				for i := range r.Mean[s] {
					r.Mean[s][i] += 10 * math.Sqrt(mc.Variance[s][i]/float64(mcSamples))
				}
			}
			checkMC(o, &r, nominal, pceVar, mcSamples)
		})
		for _, scale := range []float64{4, 0.25} {
			requireFails(t, fmt.Sprintf("variance scaled by %g", scale), func(o *outcome) {
				r := *mc
				r.Variance = copyGrid(mc.Variance)
				for s := range r.Variance {
					for i := range r.Variance[s] {
						r.Variance[s][i] *= scale
					}
				}
				checkMC(o, &r, nominal, pceVar, mcSamples)
			})
		}
	}
}

func TestRepeatCheck(t *testing.T) {
	res, _ := coupledAt(t, heldOutSeed)
	m := moments{res.Mean, res.Variance}
	if err := sameMoments(m, moments{copyGrid(res.Mean), copyGrid(res.Variance)}); err != nil {
		t.Fatal(err)
	}
	p := moments{copyGrid(res.Mean), res.Variance}
	p.mean[1][1] = math.Nextafter(p.mean[1][1], math.Inf(1))
	if sameMoments(m, p) == nil {
		t.Error("a one-ulp change passed the repeat check")
	}
}

// TestClusterChecks runs a short traced cluster mix per seed (its hit,
// coalesced and in-process checks must pass), then perturbs a fresh
// result and a hit's bytes.
func TestClusterChecks(t *testing.T) {
	for _, seed := range allSeeds() {
		o := newOutcome()
		if err := traceCluster(o, seed); err != nil {
			t.Fatal(err)
		}
		requireCorrect(t, o)
	}
	sched := newMixSchedule(heldOutSeed)
	c, err := startCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	poolData, err := solveHitPool(context.Background(), c.url, sched.pool)
	if err != nil {
		t.Fatal(err)
	}
	key := sched.pool[0].key
	data := append([]byte(nil), poolData[key]...)
	if err := checkSameBytes(poolData[key], data); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if checkSameBytes(poolData[key], data) == nil {
		t.Error("a flipped bit passed the hit check")
	}
	var jr service.JobResult
	if err := json.Unmarshal(poolData[key], &jr); err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstInProcess(sched.pool[0].req, jr); err != nil {
		t.Fatalf("unperturbed result: %v", err)
	}
	jr.Variance[5][9] *= 1 + 1e-12
	if checkAgainstInProcess(sched.pool[0].req, jr) == nil {
		t.Error("a perturbed variance passed the in-process check")
	}
}

// TestCountsRepeat runs the traced attribution twice at one seed: the
// counts later changes may claim must repeat exactly.
func TestCountsRepeat(t *testing.T) {
	counts := []string{"factor.flops", "factor.nnz", "transient.dc_cg_iters", "numguard.solves_verified", "service.solves_per_key"}
	var runs [2]*outcome
	for i := range runs {
		o, err := runTraced(heldOutSeed, testNodes)
		if err != nil {
			t.Fatal(err)
		}
		requireCorrect(t, o)
		runs[i] = o
	}
	for _, name := range counts {
		a, ok := runs[0].metrics[name]
		if !ok {
			t.Fatalf("%s not reported", name)
		}
		if b := runs[1].metrics[name]; a != b {
			t.Errorf("%s: %v then %v", name, a.Value, b.Value)
		}
	}
	if v := runs[0].metrics["service.solves_per_key"].Value; v != 1 {
		t.Errorf("service.solves_per_key = %v, want 1", v)
	}
	checkNames(t, "per_layer", runs[0].metrics)
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkNames requires the reported metrics to be exactly those
// BENCHMARK.json lists under kind, with the same units.
func checkNames(t *testing.T, kind string, got map[string]metric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	want := b.EndToEnd
	if kind == "per_layer" {
		want = b.PerLayer
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: %s reported as %+v, BENCHMARK.json says unit %q", kind, m.Name, g, m.Unit)
		}
	}
	if kind != "per_layer" {
		return
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEndToEndNames runs the shortest workloads with a minimal window
// and checks their metrics against BENCHMARK.json.
func TestEndToEndNames(t *testing.T) {
	for _, run := range []func(int64, time.Duration) (*outcome, error){runLeakage, runClusterMix} {
		o, err := run(heldOutSeed, time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		requireCorrect(t, o)
		checkNames(t, "end_to_end", o.metrics)
	}
}
