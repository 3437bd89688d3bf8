package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"opera/internal/cluster"
	"opera/internal/cluster/ring"
	"opera/internal/core"
	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/netlist"
	"opera/internal/obs"
	"opera/internal/obs/logx"
	"opera/internal/order"
	"opera/internal/service"
	"opera/internal/sparse"
)

// cluster-mix parameters.
const (
	// coldNodes sizes cold grids so a shard's run time sits inside one
	// interval of the client poll schedule (checks at 0, 50, 150, 350,
	// 750 ms): 600-node solves run about 60–120 ms, so a cold request is
	// answered at the 150 ms poll. 500-node solves ran 40–70 ms on a fast
	// host and straddled the 50 ms poll. See README.md for the observed
	// range.
	coldNodes = 600
	// hitPoolSize is the number of keys solved during set-up that hit
	// requests repeat.
	hitPoolSize = 4
	numShards   = 2
	numClients  = 2
	// clusterSetupReps is how many times a run starts the cluster and
	// solves the hit pool; setup_s is the median.
	clusterSetupReps = 9
	// A block runs each request class in a phase of its own, so no
	// end-to-end metric blends classes. No traffic trace exists to take
	// class shares from: these counts are chosen, and they set only how
	// many samples of each class a run collects. They give a 20 s run
	// more than 100 cold requests, so the cold p90 has at least 10
	// samples beyond it.
	hitsPerClient   = 200 // per block, back to back
	coldPerClient   = 4   // per block, back to back
	coalescedRounds = 1   // per block, both clients sending one fresh key
)

// Request classes of the mix.
const (
	classCold      = "cold"
	classHit       = "hit"
	classCoalesced = "coalesced"
)

// Shard and router settings: those of `operad` and `operag` started
// with default flags, listening on loopback.
const (
	shardQueueDepth  = 64
	shardJobs        = 2
	shardCacheBytes  = 256 << 20
	shardJobTimeout  = 10 * time.Minute
	shardFlightJobs  = 32
	shardSpanRingKiB = 1024
)

// programDefault marks an option left at zero, which the program
// replaces with its own default.
const programDefault = "0 (program default)"

func shardConfig() map[string]any {
	return map[string]any{
		"shards": numShards, "queue": shardQueueDepth, "jobs": shardJobs,
		"workers": "GOMAXPROCS/jobs", "cache_mb": shardCacheBytes >> 20,
		"job_timeout": shardJobTimeout.String(), "flight": shardFlightJobs,
		"span_ring_kb": shardSpanRingKiB, "peek_timeout": programDefault,
		"peers": "each other", "log": "json info to a discarding writer",
		"process_metrics": "sparse, order and factor on a process registry",
		"cold_nodes":      coldNodes, "hit_pool": hitPoolSize, "clients": numClients,
		"block": map[string]int{
			"hits_per_client": hitsPerClient, "cold_per_client": coldPerClient,
			"coalesced_rounds": coalescedRounds,
		},
	}
}

func routerConfig() map[string]any {
	return map[string]any{
		"replicas":       ring.DefaultReplicas,
		"sweep_workers":  programDefault,
		"scrape_timeout": programDefault,
	}
}

// testCluster is a router and its peer-linked shards, each on its own
// loopback listener in this process.
type testCluster struct {
	shards    []*service.Server
	shardHTTP []*obs.HTTPServer
	shardRegs []*obs.Registry
	routerReg *obs.Registry
	routerSrv *http.Server
	url       string
}

// startCluster brings up the shards, links them as peers and starts the
// router in front of them.
func startCluster() (*testCluster, error) {
	c := &testCluster{routerReg: obs.NewRegistry()}
	// operad installs the kernel metrics on its process registry.
	proc := obs.NewRegistry()
	sparse.SetMetrics(proc)
	order.SetMetrics(proc)
	factor.SetMetrics(proc)
	logger := logx.New(io.Discard, slog.LevelInfo)
	var urls []string
	for i := 0; i < numShards; i++ {
		reg := obs.NewRegistry()
		srv, err := service.New(service.Options{
			QueueDepth: shardQueueDepth, ConcurrentJobs: shardJobs,
			CacheBytes: shardCacheBytes, Limits: netlist.DefaultLimits(),
			DefaultTimeout: shardJobTimeout, Registry: reg, Logger: logger,
			FlightJobs: shardFlightJobs, SpanRingBytes: shardSpanRingKiB << 10,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		hs, err := obs.StartHTTP("127.0.0.1:0", srv.Handler())
		if err != nil {
			shutdownServer(srv)
			c.stop()
			return nil, err
		}
		c.shards = append(c.shards, srv)
		c.shardHTTP = append(c.shardHTTP, hs)
		c.shardRegs = append(c.shardRegs, reg)
		urls = append(urls, "http://"+hs.Addr())
	}
	for i, s := range c.shards {
		s.SetPeers(urls[i], urls)
	}
	router, err := cluster.New(cluster.Options{Shards: urls, Registry: c.routerReg, Logger: logger})
	if err != nil {
		c.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	c.routerSrv = &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	go c.routerSrv.Serve(ln)
	c.url = "http://" + ln.Addr().String()
	return c, nil
}

func shutdownServer(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// stop shuts the router and shards down and waits for them.
func (c *testCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.routerSrv != nil {
		c.routerSrv.Shutdown(ctx)
	}
	for i, s := range c.shards {
		s.Shutdown(ctx)
		c.shardHTTP[i].Close(ctx)
	}
	sparse.SetMetrics(nil)
	order.SetMetrics(nil)
	factor.SetMetrics(nil)
}

// counter sums a counter over the shard registries.
func (c *testCluster) counter(name string) int64 {
	var n int64
	for _, r := range c.shardRegs {
		n += r.Counter(name).Value()
	}
	return n
}

// mixRequest is one request of the schedule.
type mixRequest struct {
	class string
	req   service.Request
	key   string
}

func newMixRequest(class string, nodes int, gridSeed int64) mixRequest {
	spec := grid.DefaultSpec(nodes, gridSeed)
	req := service.Request{Grid: &spec}
	norm := req
	norm.Normalize()
	return mixRequest{class: class, req: req, key: norm.Key()}
}

// mixSchedule generates the seeded requests: the hit pool, the hits
// drawn from it, and the fresh grids of cold and coalesced requests.
type mixSchedule struct {
	rng   *rand.Rand
	base  int64
	fresh int64
	pool  []mixRequest
}

func newMixSchedule(seed int64) *mixSchedule {
	s := &mixSchedule{rng: rand.New(rand.NewSource(seed)), base: seed * 1_000_003}
	for k := 0; k < hitPoolSize; k++ {
		s.pool = append(s.pool, newMixRequest(classHit, coldNodes, s.base+500_000+int64(k)))
	}
	return s
}

func (s *mixSchedule) freshRequest(class string) mixRequest {
	s.fresh++
	return newMixRequest(class, coldNodes, s.base+s.fresh)
}

func (s *mixSchedule) hit() mixRequest { return s.pool[s.rng.Intn(len(s.pool))] }

// reqOutcome is what one client request observed.
type reqOutcome struct {
	mix    mixRequest
	latMS  float64
	data   []byte
	status service.JobStatus
	err    error
	// Set by stagedRequest only.
	traceID           string
	submitMS, fetchMS float64
}

// programMS is the time the program spent on a staged request: the
// submit, the shard's queued and run time, and the fetch. It leaves out
// the time the client sleeps between polls.
func (r reqOutcome) programMS() float64 {
	return r.submitMS + r.status.QueuedMS + r.status.RunMS + r.fetchMS
}

// sender sends one request and reports what the client observed.
type sender func(context.Context, *service.Client, mixRequest) reqOutcome

// runRequest sends one request the way `opera -remote` does.
func runRequest(ctx context.Context, c *service.Client, m mixRequest) reqOutcome {
	t0 := time.Now()
	data, info, err := c.RunBytes(ctx, m.req)
	return reqOutcome{mix: m, latMS: ms(time.Since(t0)), data: data, status: info.Status, err: err}
}

// stagedRequest makes the three calls of RunBytes (Submit, Wait and
// ResultBytes) one by one, so the submit and the fetch can be timed.
// With a tracer it wraps each in a span, and the request carries the
// tracer's trace ID.
func stagedRequest(ctx context.Context, c *service.Client, m mixRequest, tr *obs.Tracer) reqOutcome {
	r := reqOutcome{mix: m, traceID: m.req.TraceID}
	t0 := time.Now()
	sp := tr.Start("client.submit")
	sub, err := c.Submit(ctx, m.req)
	sp.End()
	r.submitMS = ms(time.Since(t0))
	if err == nil {
		sp = tr.Start("client.wait")
		r.status, err = c.Wait(ctx, sub.ID)
		sp.End()
	}
	if err == nil && r.status.State != service.StateDone {
		err = fmt.Errorf("job %s %s: %s", sub.ID, r.status.State, r.status.Error)
	}
	if err == nil {
		t1 := time.Now()
		sp = tr.Start("client.fetch")
		r.data, err = c.ResultBytes(ctx, sub.ID)
		sp.End()
		r.fetchMS = ms(time.Since(t1))
	}
	r.latMS = ms(time.Since(t0))
	r.err = err
	return r
}

// untracedStaged is stagedRequest without spans.
func untracedStaged(ctx context.Context, c *service.Client, m mixRequest) reqOutcome {
	return stagedRequest(ctx, c, m, nil)
}

// presolveRequest submits a request and polls its status every 2 ms
// until it ends.
func presolveRequest(ctx context.Context, c *service.Client, m mixRequest) reqOutcome {
	r := reqOutcome{mix: m}
	sub, err := c.Submit(ctx, m.req)
	for err == nil {
		r.status, err = c.Status(ctx, sub.ID)
		if err != nil || r.status.State == service.StateDone {
			break
		}
		if r.status.State == service.StateFailed || r.status.State == service.StateCanceled {
			err = fmt.Errorf("job %s %s: %s", sub.ID, r.status.State, r.status.Error)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err == nil {
		r.data, err = c.ResultBytes(ctx, sub.ID)
	}
	r.err = err
	return r
}

// mixClients are the closed-loop clients of a run.
type mixClients [numClients]*service.Client

func newMixClients(url string) *mixClients {
	var cl mixClients
	for i := range cl {
		cl[i] = service.NewClient(url)
	}
	return &cl
}

// phase runs one closed loop per client at once: client i sends
// reqs[i] in order, each request after the one before has completed.
// It returns when every client is done.
func (cl *mixClients) phase(ctx context.Context, reqs [numClients][]mixRequest, send sender) [numClients][]reqOutcome {
	var (
		out [numClients][]reqOutcome
		wg  sync.WaitGroup
	)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, m := range reqs[i] {
				out[i] = append(out[i], send(ctx, cl[i], m))
			}
		}(i)
	}
	wg.Wait()
	return out
}

// mixSenders says how each class is sent.
type mixSenders struct {
	hit, cold, coalesced sender
}

// timedSenders are those of the untraced run: hits and coalesced pairs
// go through RunBytes, and cold requests are staged so their program
// time can be measured.
var timedSenders = mixSenders{hit: runRequest, cold: untracedStaged, coalesced: runRequest}

// mixRun accumulates a run's requests and checks the byte-identity
// invariants as phases complete.
type mixRun struct {
	o        *outcome
	poolData map[string][]byte
	fresh    []reqOutcome // first outcome of every cold and coalesced key
	lat      map[string][]float64
	// Hit phases: completed hits per second of each, their total wall
	// time, heap bytes allocated and completed hits.
	hitRates  []float64
	hitTime   time.Duration
	hitAllocs uint64
	hits      int
	attempt   int
	failed    int
}

func newMixRun(o *outcome, poolData map[string][]byte) *mixRun {
	return &mixRun{o: o, poolData: poolData, lat: map[string][]float64{}}
}

// add records one request; it returns false if the request failed.
func (mr *mixRun) add(r reqOutcome) bool {
	mr.attempt++
	if r.err != nil {
		mr.failed++
		mr.o.check("request", fmt.Errorf("%s %s: %w", r.mix.class, r.mix.key[:12], r.err))
		return false
	}
	mr.lat[r.mix.class] = append(mr.lat[r.mix.class], r.latMS)
	switch r.mix.class {
	case classHit:
		mr.hits++
		mr.o.check("hit.bytes", checkSameBytes(mr.poolData[r.mix.key], r.data))
	case classCold:
		mr.fresh = append(mr.fresh, r)
	}
	return true
}

// block runs one hit phase, one cold phase and coalescedRounds
// coalesced rounds.
func (mr *mixRun) block(ctx context.Context, cl *mixClients, s *mixSchedule, send mixSenders) {
	var hits, cold [numClients][]mixRequest
	for i := range hits {
		for k := 0; k < hitsPerClient; k++ {
			hits[i] = append(hits[i], s.hit())
		}
	}
	for i := range cold {
		for k := 0; k < coldPerClient; k++ {
			cold[i] = append(cold[i], s.freshRequest(classCold))
		}
	}
	a0, t0 := heapAllocs(), time.Now()
	got := cl.phase(ctx, hits, send.hit)
	d := time.Since(t0)
	mr.hitAllocs += heapAllocs() - a0
	mr.hitTime += d
	done := mr.hits
	for _, rs := range got {
		for _, r := range rs {
			mr.add(r)
		}
	}
	mr.hitRates = append(mr.hitRates, float64(mr.hits-done)/d.Seconds())
	for _, rs := range cl.phase(ctx, cold, send.cold) {
		for _, r := range rs {
			mr.add(r)
		}
	}
	for k := 0; k < coalescedRounds; k++ {
		m := s.freshRequest(classCoalesced)
		pair := cl.phase(ctx, [numClients][]mixRequest{{m}, {m}}, send.coalesced)
		first, second := pair[0][0], pair[1][0]
		if mr.add(first) {
			mr.fresh = append(mr.fresh, first)
		}
		if mr.add(second) && first.err == nil {
			mr.o.check("coalesced.bytes", checkSameBytes(first.data, second.data))
		}
	}
}

// cold returns the outcomes of the cold requests.
func (mr *mixRun) cold() []reqOutcome {
	var out []reqOutcome
	for _, r := range mr.fresh {
		if r.mix.class == classCold {
			out = append(out, r)
		}
	}
	return out
}

// coldProgramMS returns the program time of every cold request.
func (mr *mixRun) coldProgramMS() []float64 {
	var out []float64
	for _, r := range mr.cold() {
		out = append(out, r.programMS())
	}
	return out
}

// solveHitPool solves every pool key once, both clients in parallel,
// and returns the first bytes of each. It polls every few milliseconds
// instead of on the client's backoff schedule, so set-up time follows
// the solves rather than the poll steps.
func solveHitPool(ctx context.Context, url string, pool []mixRequest) (map[string][]byte, error) {
	var reqs [numClients][]mixRequest
	for k, m := range pool {
		reqs[k%numClients] = append(reqs[k%numClients], m)
	}
	data := map[string][]byte{}
	for _, rs := range newMixClients(url).phase(ctx, reqs, presolveRequest) {
		for _, r := range rs {
			if r.err != nil {
				return nil, fmt.Errorf("solving the hit pool: %w", r.err)
			}
			data[r.mix.key] = r.data
		}
	}
	return data, nil
}

// setupCluster starts the cluster and solves the hit pool
// clusterSetupReps times, keeping the last cluster.
func setupCluster(ctx context.Context, sched *mixSchedule) (*testCluster, map[string][]byte, float64, error) {
	var times []float64
	for rep := 1; ; rep++ {
		t0 := time.Now()
		c, err := startCluster()
		if err != nil {
			return nil, nil, 0, err
		}
		data, err := solveHitPool(ctx, c.url, sched.pool)
		if err != nil {
			c.stop()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == clusterSetupReps {
			return c, data, median(times), nil
		}
		c.stop()
	}
}

func runClusterMix(seed int64, window time.Duration) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	sched := newMixSchedule(seed)
	c, poolData, setupS, err := setupCluster(ctx, sched)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	mr := newMixRun(o, poolData)
	cl := newMixClients(c.url)
	// Whole blocks only, at least one.
	start := time.Now()
	for {
		mr.block(ctx, cl, sched, timedSenders)
		if time.Since(start) >= window {
			break
		}
	}

	o.attempted, o.failed = mr.attempt, mr.failed
	o.set("setup_s", "s", setupS)
	o.set("latency_ms", "ms", median(mr.coldProgramMS()))
	o.set("ops_per_s", "1/s", median(mr.hitRates))
	o.set("alloc_mb_per_op", "MB", float64(mr.hitAllocs)/float64(max(mr.hits, 1))/1e6)
	mr.describe()
	o.info["hit_phase_s"] = mr.hitTime.Seconds()
	checkCluster(o, c, mr, len(sched.pool))
	return o, nil
}

// describe adds per-class latency percentiles to the info line. A
// percentile is reported only when at least ten samples lie beyond it.
func (mr *mixRun) describe() {
	o := mr.o
	for _, class := range []string{classCold, classHit, classCoalesced} {
		lat := mr.lat[class]
		d := map[string]any{"count": len(lat)}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
			if v, beyond := percentile(lat, q.q); beyond >= 10 {
				d[q.name] = v
			}
		}
		o.info[class] = d
	}
	var runMS, queuedMS []float64
	for _, r := range mr.cold() {
		runMS = append(runMS, r.status.RunMS)
		queuedMS = append(queuedMS, r.status.QueuedMS)
	}
	if len(runMS) > 0 {
		sort.Float64s(runMS)
		o.info["cold_run_ms"] = map[string]float64{"min": runMS[0], "p50": median(runMS), "max": runMS[len(runMS)-1]}
		o.info["cold_queued_ms_p50"] = median(queuedMS)
	}
}

// checkCluster verifies every fresh result against an in-process
// analysis of the same normalized request (results are identical for
// every worker count), and that every distinct key was solved once.
// The analyses run on GOMAXPROCS goroutines.
func checkCluster(o *outcome, c *testCluster, mr *mixRun, poolKeys int) {
	errs := make([]error, len(mr.fresh))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var jr service.JobResult
				if err := json.Unmarshal(mr.fresh[i].data, &jr); err != nil {
					errs[i] = fmt.Errorf("decoding: %w", err)
					continue
				}
				errs[i] = checkAgainstInProcess(mr.fresh[i].mix.req, jr)
			}
		}()
	}
	for i := range mr.fresh {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		o.check("fresh.vs_inprocess", err)
	}
	keys := int64(poolKeys + len(mr.fresh))
	if solves := c.counter("service.solves_total"); solves != keys {
		o.check("solves_per_key", fmt.Errorf("%d solves for %d distinct keys", solves, keys))
	}
}

// checkAgainstInProcess solves req with core and compares the moments.
func checkAgainstInProcess(req service.Request, jr service.JobResult) error {
	req.Normalize()
	nl, err := grid.Build(*req.Grid)
	if err != nil {
		return err
	}
	ord, err := service.ParseOrdering(req.Ordering)
	if err != nil {
		return err
	}
	res, err := core.AnalyzeNetlist(nl, core.Options{Order: req.Order, Step: req.Step, Steps: req.Steps, Ordering: ord})
	if err != nil {
		return err
	}
	return sameMoments(moments{res.Mean, res.Variance}, moments{jr.Mean, jr.Variance})
}
