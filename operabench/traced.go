package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"opera/internal/cluster"
	"opera/internal/core"
	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/service"
	"opera/internal/sparse"
)

// The traced run is one attribution pass over every layer: each
// in-process path traced (coupled and leakage in untraced and traced
// pairs, for the tracing overhead), a kernel replay, and a short traced
// cluster mix. Its per-layer metrics have one source each whatever the
// workload flag says; the seed picks the inputs.

// Sizes of the traced pass.
const (
	coupledPairs    = 2 // untraced and traced pairs of coupled analyses
	leakagePairs    = 5
	replayRefactors = 5
	replaySolves    = 50
	tracedMixBlocks = 3
	stitchedSample  = 3 // cold requests whose stitched trace is fetched
)

// runTraced runs the attribution pass with in-process grids of the
// given size.
func runTraced(seed int64, nodes int) (*outcome, error) {
	o := newOutcome()
	inproc := []func(*outcome, int64, int) error{traceSetup, traceCoupled, traceLeakage, traceMC, traceReplay}
	for _, step := range inproc {
		if err := step(o, seed, nodes); err != nil {
			return nil, err
		}
	}
	if err := traceCluster(o, seed); err != nil {
		return nil, err
	}
	// The coupled and leakage warm-ups and pairs, Monte Carlo, the
	// kernel replay, and the cluster requests counted by traceCluster.
	o.attempted += 2*(1+coupledPairs+leakagePairs) + 2
	return o, nil
}

// spanIndex maps span names to the spans of a dumped trace.
type spanIndex map[string][]obs.SpanDump

func indexSpans(d *obs.Dump) spanIndex {
	idx := spanIndex{}
	var walk func([]obs.SpanDump)
	walk = func(spans []obs.SpanDump) {
		for _, s := range spans {
			idx[s.Name] = append(idx[s.Name], s)
			walk(s.Spans)
		}
	}
	walk(d.Spans)
	return idx
}

// ms sums the durations of the named spans.
func (idx spanIndex) ms(name string) float64 {
	var t float64
	for _, s := range idx[name] {
		t += s.DurMS
	}
	return t
}

// allocMB sums the allocation deltas of the named spans.
func (idx spanIndex) allocMB(name string) float64 {
	var b uint64
	for _, s := range idx[name] {
		b += s.AllocBytes
	}
	return float64(b) / 1e6
}

// traceSetup times grid generation and the MNA stamp, setupReps times
// each.
func traceSetup(o *outcome, seed int64, nodes int) error {
	var gridMS, mnaMS []float64
	for i := 0; i < setupReps; i++ {
		tr := obs.New("operabench.setup")
		sp := tr.Start("grid.build")
		nl, err := grid.Build(grid.DefaultSpec(nodes, seed))
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.Start("mna.build")
		_, err = mna.Build(nl, mna.DefaultSpec())
		sp.End()
		if err != nil {
			return err
		}
		tr.Finish()
		idx := indexSpans(tr.Dump())
		gridMS = append(gridMS, idx.ms("grid.build"))
		mnaMS = append(mnaMS, idx.ms("mna.build"))
	}
	o.set("grid.build_ms", "ms", median(gridMS))
	o.set("mna.build_ms", "ms", median(mnaMS))
	return nil
}

// tracedAnalysis is one analysis run under a tracer.
type tracedAnalysis struct {
	out        any
	spans      spanIndex
	metrics    obs.MetricsSnapshot
	analysisMS float64
	// overheadPct is the median traced analysis time minus the median
	// untraced one, in percent of the untraced.
	overheadPct float64
}

// tracedCall runs call once to warm up, then pairs times untraced and
// traced, alternating which goes first (ABBA), the traced calls under an
// "analysis" span. It returns the last traced run. The first call of a
// process runs slower while its heap grows, and single pairs differ by
// the machine's run-to-run noise, which is larger than the tracing
// cost; the warm-up, the alternation and the medians narrow both.
func tracedCall(name string, pairs int, call func(*obs.Tracer) (any, error)) (*tracedAnalysis, error) {
	if _, err := call(nil); err != nil {
		return nil, err
	}
	var (
		untraced, traced []float64
		ta               *tracedAnalysis
	)
	runUntraced := func() error {
		runtime.GC()
		t0 := time.Now()
		_, err := call(nil)
		untraced = append(untraced, ms(time.Since(t0)))
		return err
	}
	runTraced := func() error {
		runtime.GC()
		tr := obs.New("operabench." + name)
		sp := tr.Start("analysis")
		out, err := call(tr)
		sp.End()
		tr.Finish()
		d := tr.Dump()
		ta = &tracedAnalysis{out: out, spans: indexSpans(d), metrics: d.Metrics}
		ta.analysisMS = ta.spans.ms("analysis")
		traced = append(traced, ta.analysisMS)
		return err
	}
	for i := 0; i < pairs; i++ {
		order := []func() error{runUntraced, runTraced}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, run := range order {
			if err := run(); err != nil {
				return nil, err
			}
		}
	}
	ta.overheadPct = 100 * (median(traced) - median(untraced)) / median(untraced)
	return ta, nil
}

// solveGBps is the factor bytes a solve pass reads (L forward and back,
// eight bytes a value), times the solves, over the time: computed from
// counts, not measured.
func solveGBps(factorNNZ int, solves int64, spanMS float64) float64 {
	return 2 * 8 * float64(factorNNZ) * float64(solves) / (spanMS / 1000) / 1e9
}

func traceCoupled(o *outcome, seed int64, nodes int) error {
	fx, err := buildFixture(nodes, seed, mna.DefaultSpec())
	if err != nil {
		return err
	}
	ta, err := tracedCall("coupled", coupledPairs, func(tr *obs.Tracer) (any, error) {
		opts := coupledOptions()
		opts.Obs = tr
		return core.Analyze(fx.sys, opts)
	})
	if err != nil {
		return fmt.Errorf("coupled: %w", err)
	}
	res, idx, snap, analysisMS := ta.out.(*core.Result), ta.spans, ta.metrics, ta.analysisMS
	nominal, err := core.NominalRun(fx.sys, coupledOptions())
	if err != nil {
		return err
	}
	checkCoupled(o, res, nominal)
	g := res.Galerkin
	assemble := idx.ms("galerkin.assemble")
	factorSelf := idx.ms("factor") - assemble
	moments := idx.ms("moments")
	// Moment extraction runs inside the stepping loop, so the transient
	// span's interval contains it; transient.ms excludes it so that each
	// phase is counted once.
	transientMS := idx.ms("transient") - moments
	cg := snap.Counters["galerkin.cg_iterations_total"]
	o.set("galerkin.assemble_ms", "ms", assemble)
	o.set("galerkin.assemble_alloc_mb", "MB", idx.allocMB("galerkin.assemble"))
	o.set("order.ms", "ms", idx.ms("order"))
	o.set("factor.self_ms", "ms", factorSelf)
	o.set("factor.flops", "count", float64(g.FactorFlops))
	o.set("factor.nnz", "count", float64(g.FactorNNZ))
	o.set("factor.gflops", "GFLOP/s", float64(g.FactorFlops)/(factorSelf/1000)/1e9)
	o.set("factor.alloc_mb", "MB", idx.allocMB("factor")-idx.allocMB("galerkin.assemble"))
	o.set("transient.ms", "ms", transientMS)
	o.set("transient.step_ms", "ms", snap.Histograms["galerkin.step_ms"].Mean())
	o.set("transient.dc_cg_iters", "count", float64(cg))
	// One preconditioner solve per CG iteration plus one per step.
	o.set("transient.solve_gbps_computed", "GB/s", solveGBps(g.FactorNNZ, cg+int64(steps), transientMS))
	o.set("numguard.solves_verified", "count", float64(snap.Counters["numguard.solves_verified_total"]))
	o.set("numguard.escalations", "count", float64(snap.Counters["numguard.ladder_escalations_total"]))
	o.set("core.moments_ms", "ms", moments)
	o.set("coupled.analysis_s", "s", analysisMS/1000)
	covered := idx.ms("stamp") + idx.ms("order") + idx.ms("factor") + transientMS + moments
	o.set("coupled.phase_coverage_pct", "%", 100*covered/analysisMS)
	o.set("obs.overhead_pct", "%", ta.overheadPct)
	return nil
}

func traceLeakage(o *outcome, seed int64, nodes int) error {
	fx, err := buildFixture(nodes, seed, mna.VariationSpec{})
	if err != nil {
		return err
	}
	ta, err := tracedCall("leakage", leakagePairs, func(tr *obs.Tracer) (any, error) {
		opts := leakageOptions(fx)
		opts.Obs = tr
		return core.AnalyzeLeakage(fx.nl, opts)
	})
	if err != nil {
		return fmt.Errorf("leakage: %w", err)
	}
	res, idx, snap, analysisMS := ta.out.(*core.Result), ta.spans, ta.metrics, ta.analysisMS
	ref, err := leakageMeanReference(fx.sys)
	if err != nil {
		return err
	}
	checkLeakage(o, res, ref)
	moments := idx.ms("moments")
	transientMS := idx.ms("transient") - moments
	b := int64(res.Basis.Size())
	o.set("leakage.analysis_s", "s", analysisMS/1000)
	o.set("leakage.assemble_ms", "ms", idx.ms("galerkin.assemble"))
	o.set("leakage.order_ms", "ms", idx.ms("order"))
	o.set("leakage.factor_ms", "ms", idx.ms("factor"))
	o.set("leakage.transient_ms", "ms", transientMS)
	o.set("leakage.step_ms", "ms", snap.Histograms["galerkin.step_ms"].Mean())
	o.set("leakage.moments_ms", "ms", moments)
	// Every basis function takes one companion solve per step, plus
	// one DC solve on G of about the same fill.
	o.set("leakage.solve_gbps_computed", "GB/s", solveGBps(res.Galerkin.FactorNNZ, b*int64(steps+1), transientMS))
	o.set("leakage.numguard_solves_verified", "count", float64(snap.Counters["numguard.solves_verified_total"]))
	// AnalyzeLeakage stamps the netlist outside any phase span, so the
	// stamp is the uncovered remainder.
	covered := idx.ms("galerkin.assemble") + idx.ms("order") + idx.ms("factor") + transientMS + moments
	o.set("leakage.phase_coverage_pct", "%", 100*covered/analysisMS)
	o.set("obs.leakage_overhead_pct", "%", ta.overheadPct)
	return nil
}

func traceMC(o *outcome, seed int64, nodes int) error {
	fx, err := buildFixture(nodes, seed, mna.DefaultSpec())
	if err != nil {
		return err
	}
	tr := obs.New("operabench.mc")
	opts := coupledOptions()
	opts.Obs = tr
	sp := tr.Start("analysis")
	res, _, err := core.RunMC(fx.sys, opts, mcSamples, seed*7919+17, nil)
	sp.End()
	tr.Finish()
	if err != nil {
		return fmt.Errorf("mc: %w", err)
	}
	nominal, pceVar, err := mcReference(fx.sys)
	if err != nil {
		return err
	}
	checkMC(o, res, nominal, pceVar, mcSamples)
	d := tr.Dump()
	idx := indexSpans(d)
	o.set("montecarlo.run_ms", "ms", idx.ms("montecarlo.run"))
	o.set("montecarlo.sample_ms", "ms", d.Metrics.Histograms["montecarlo.sample_ms"].Mean())
	o.set("parallel.workers", "count", d.Metrics.Gauges["parallel.workers"])
	return nil
}

// traceReplay replays the scalar kernel the Monte Carlo samples and
// the decoupled solves use: symbolic analysis of the n×n transient
// companion, numeric refactorizations, then triangular-solve pairs.
func traceReplay(o *outcome, seed int64, nodes int) error {
	fx, err := buildFixture(nodes, seed, mna.DefaultSpec())
	if err != nil {
		return err
	}
	tr := obs.New("operabench.replay")
	companion := sparse.Add(1, fx.sys.Ga, 1/step, fx.sys.Ca)
	sp := tr.Start("factor.analyze")
	sym := factor.Analyze(companion, order.NestedDissection(order.NewGraph(companion), 0), factor.KernelSupernodal)
	sp.End()
	var (
		f                   factor.ScalarFactor
		refactorMS, solveMS []float64
	)
	for i := 0; i < replayRefactors; i++ {
		t0 := time.Now()
		sp := tr.Start("factor.refactor")
		f, err = sym.Refactorize(companion, f)
		sp.End()
		refactorMS = append(refactorMS, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	n := companion.Rows
	x, b, y := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for i := 0; i < replaySolves; i++ {
		t0 := time.Now()
		sp := tr.Start("factor.solve")
		f.SolveToWithScratch(x, b, y)
		sp.End()
		solveMS = append(solveMS, ms(time.Since(t0)))
	}
	tr.Finish()
	// The replayed factor must solve the companion system.
	if r := relResidual(companion, x, b); !(r < 1e-8) {
		o.check("replay.residual", fmt.Errorf("relative residual %.3g", r))
	}
	o.set("factor.analyze_ms", "ms", indexSpans(tr.Dump()).ms("factor.analyze"))
	o.set("factor.refactor_ms", "ms", median(refactorMS))
	o.set("factor.solve_ms", "ms", median(solveMS))
	return nil
}

// relResidual returns ‖Ax − b‖∞ / ‖b‖∞.
func relResidual(a *sparse.Matrix, x, b []float64) float64 {
	ax := make([]float64, len(b))
	a.MulVec(ax, x)
	var num, den float64
	for i := range b {
		num = math.Max(num, math.Abs(ax[i]-b[i]))
		den = math.Max(den, math.Abs(b[i]))
	}
	return num / den
}

// tracedRequest sends one request as stagedRequest does, under
// benchmark-side spans that share the request's trace ID.
func tracedRequest(ctx context.Context, c *service.Client, m mixRequest) reqOutcome {
	id := obs.NewTraceID()
	tr := obs.New("client.request")
	tr.SetTraceID(id)
	m.req.TraceID = string(id)
	r := stagedRequest(ctx, c, m, tr)
	tr.Finish()
	return r
}

func traceCluster(o *outcome, seed int64) error {
	ctx := context.Background()
	sched := newMixSchedule(seed)
	c, err := startCluster()
	if err != nil {
		return err
	}
	defer c.stop()
	poolData, err := solveHitPool(ctx, c.url, sched.pool)
	if err != nil {
		return err
	}
	mr := newMixRun(o, poolData)
	cl := newMixClients(c.url)
	traced := mixSenders{hit: tracedRequest, cold: tracedRequest, coalesced: tracedRequest}
	for i := 0; i < tracedMixBlocks; i++ {
		mr.block(ctx, cl, sched, traced)
	}
	checkCluster(o, c, mr, len(sched.pool))
	o.attempted += mr.attempt
	o.failed += mr.failed

	var submit, fetch, pollWait, queued, run, resultMB []float64
	for _, r := range mr.cold() {
		submit = append(submit, r.submitMS)
		fetch = append(fetch, r.fetchMS)
		// Client latency minus the shard's queued and run time minus the
		// fetch: what the poll schedule and the hops add.
		pollWait = append(pollWait, r.latMS-r.status.QueuedMS-r.status.RunMS-r.fetchMS)
		queued = append(queued, r.status.QueuedMS)
		run = append(run, r.status.RunMS)
		resultMB = append(resultMB, float64(len(r.data))/1e6)
	}
	o.set("client.submit_ms", "ms", median(submit))
	o.set("client.poll_wait_ms", "ms", median(pollWait))
	o.set("client.fetch_ms", "ms", median(fetch))
	o.set("client.cold_p50_ms", "ms", median(mr.lat[classCold]))
	o.set("client.hit_p50_ms", "ms", median(mr.lat[classHit]))
	o.set("service.queue_wait_ms", "ms", median(queued))
	o.set("service.run_ms", "ms", median(run))
	o.set("service.result_mb", "MB", median(resultMB))

	hits, misses := c.counter("service.cache_hits_total"), c.counter("service.cache_misses_total")
	o.set("service.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	keys := len(sched.pool) + len(mr.fresh)
	o.set("service.solves_per_key", "ratio", float64(c.counter("service.solves_total"))/float64(keys))
	o.set("service.coalesced", "count", float64(c.counter("service.jobs_coalesced_total")))
	peekHits := c.counter("service.peer_peek_hits_total")
	peeks := peekHits + c.counter("service.peer_peek_misses_total") + c.counter("service.peer_peek_errors_total")
	o.set("service.peer_peeks", "count", float64(peeks))
	o.set("service.peer_peek_hit_ratio", "ratio", float64(peekHits)/float64(max(peeks, 1)))

	rs := c.routerReg.Snapshot()
	o.set("cluster.forward_ms", "ms", rs.Histograms["cluster.forward_ms"].Mean())
	var routed, most int64
	for name, v := range rs.Counters {
		if strings.HasPrefix(name, "cluster.route_total.") {
			routed += v
			most = max(most, v)
		}
	}
	o.set("cluster.route_max_share", "ratio", float64(most)/float64(max(routed, 1)))
	spans, err := stitchedSpans(ctx, c.url, mr.cold())
	if err != nil {
		return err
	}
	o.set("cluster.stitched_spans", "count", spans)
	return nil
}

// stitchedSpans fetches the router's stitched trace of the first few
// cold requests and returns their mean span count.
func stitchedSpans(ctx context.Context, url string, cold []reqOutcome) (float64, error) {
	var total, n int
	for _, r := range cold {
		if n == stitchedSample {
			break
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/debug/trace/"+r.traceID, nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		var st cluster.StitchedTrace
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("stitched trace %s: HTTP %d: %v", r.traceID, resp.StatusCode, err)
		}
		total += st.SpanCount
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no cold request to fetch a stitched trace for")
	}
	return float64(total) / float64(n), nil
}
