package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"opera/internal/checkpoint"
	"opera/internal/galerkin"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/montecarlo"
	"opera/internal/service/inject"
)

// mcRequest builds a Monte Carlo request big enough to be interrupted
// mid-sampling.
func mcRequest(seed int64, samples int) Request {
	spec := grid.DefaultSpec(64, seed)
	return Request{Grid: &spec, Analysis: KindMC, Samples: samples, Steps: 4, Step: 1e-10}
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// normalizeResult strips the per-run volatile fields (trace and
// timing) so two runs of the same work can be compared byte-for-byte.
func normalizeResult(t *testing.T, data []byte) string {
	t.Helper()
	var jr JobResult
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	jr.TraceID = ""
	jr.ElapsedMS = 0
	jr.Trace = nil
	jr.Metrics = nil
	b, err := json.Marshal(&jr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A deadline mid-MC yields a degraded result: done state, the moments
// over the samples that ran, error bars, no cache entry — and the
// checkpoint survives so a resubmission resumes.
func TestDeadlineDegradedResult(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{
		ConcurrentJobs: 1, CheckpointDir: dir, CheckpointEvery: 8,
	})
	req := mcRequest(7, 500000)
	req.TimeoutMS = 400
	sub, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	if !st.Degraded {
		t.Fatal("status not marked degraded")
	}
	data, _, err := s.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResult
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.Degraded || jr.SamplesRequested != req.Samples {
		t.Fatalf("degraded=%v requested=%d, want true/%d", jr.Degraded, jr.SamplesRequested, req.Samples)
	}
	if jr.SamplesRun <= 0 || jr.SamplesRun >= req.Samples {
		t.Fatalf("samples_run %d out of range (0, %d)", jr.SamplesRun, req.Samples)
	}
	if len(jr.StdErr) == 0 {
		t.Fatal("degraded result missing stderr")
	}
	if len(jr.StdErr) != jr.Steps+1 || len(jr.StdErr[0]) != jr.N {
		t.Fatalf("stderr shape %dx%d, want %dx%d", len(jr.StdErr), len(jr.StdErr[0]), jr.Steps+1, jr.N)
	}
	for s := range jr.StdErr {
		for i, v := range jr.StdErr[s] {
			if v < 0 {
				t.Fatalf("negative stderr at %d/%d", s, i)
			}
		}
	}
	// Degraded results must not poison the cache.
	if _, ok := s.cache.Get(sub.Key); ok {
		t.Fatal("degraded result was cached")
	}
	// The checkpoint survives for a resuming resubmission.
	if s.ckpts.Len() == 0 {
		t.Fatal("checkpoint deleted after degraded finish")
	}
}

// A full-budget resubmission of a degraded job resumes from its
// checkpoint and produces a result byte-identical (modulo volatile
// fields) to an uninterrupted run.
func TestDegradedThenResumeMatchesFreshRun(t *testing.T) {
	req := mcRequest(11, 4000)

	// Reference: one uninterrupted run on a checkpoint-free server.
	ref := newTestServer(t, Options{ConcurrentJobs: 1})
	sub, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, sub.ID)
	refData, _, err := ref.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: deadline cuts the first attempt short, the second
	// attempt resumes and finishes.
	dir := t.TempDir()
	s := newTestServer(t, Options{ConcurrentJobs: 1, CheckpointDir: dir, CheckpointEvery: 8})
	short := req
	short.TimeoutMS = 150
	sub1, err := s.Submit(short)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub1.ID)
	if st.State != StateDone || !st.Degraded {
		t.Skipf("first attempt finished undegraded (state %s, degraded %v) — machine too fast for the budget", st.State, st.Degraded)
	}
	resumes := s.mResumes.Value()
	sub2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Cached {
		t.Fatal("second attempt served from cache — degraded result leaked into it")
	}
	st2 := waitDone(t, s, sub2.ID)
	if st2.State != StateDone || st2.Degraded {
		t.Fatalf("second attempt state %s degraded %v, want clean done", st2.State, st2.Degraded)
	}
	if s.mResumes.Value() <= resumes {
		t.Fatal("second attempt did not resume from the checkpoint")
	}
	data, _, err := s.Result(sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeResult(t, data), normalizeResult(t, refData); got != want {
		t.Fatal("resumed result differs from uninterrupted run")
	}
	// Full success reclaims the snapshot.
	if s.ckpts.Len() != 0 {
		t.Fatalf("%d checkpoints survive a clean finish", s.ckpts.Len())
	}
}

// The stall watchdog kills a hung job with a structured StallError;
// the job fails rather than hanging the worker forever.
func TestStallWatchdogKillsHungJob(t *testing.T) {
	restore := inject.Enable(&inject.Faults{Seed: 1, ArtificialStall: 1})
	t.Cleanup(restore)
	s := newTestServer(t, Options{ConcurrentJobs: 1, StallTimeout: 80 * time.Millisecond})
	req := quickRequest(3)
	req.NoCache = true
	sub, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "stalled") {
		t.Fatalf("error %q does not mention the stall", st.Error)
	}
	if s.mStalls.Value() == 0 {
		t.Fatal("stall counter did not move")
	}
}

// A slow-but-progressing job must NOT trip the watchdog: progress
// marks at step boundaries distinguish slow from hung.
func TestWatchdogSparesProgressingJob(t *testing.T) {
	s := newTestServer(t, Options{ConcurrentJobs: 1, StallTimeout: 2 * time.Second})
	req := quickRequest(5)
	req.NoCache = true
	sub, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	if s.mStalls.Value() != 0 {
		t.Fatal("watchdog fired on a progressing job")
	}
}

// Readiness reflects queue saturation, not just draining.
func TestReadinessSaturation(t *testing.T) {
	s := newTestServer(t, Options{ConcurrentJobs: 1, QueueDepth: 1})
	// Occupy the single worker, then fill the single queue slot.
	running, err := s.Submit(slowRequest(21))
	if err != nil {
		t.Fatal(err)
	}
	var queued SubmitResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		queued, err = s.Submit(slowRequest(22))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The queued job may be claimed the instant the first finishes;
	// sample readiness while both are outstanding.
	ok, reason, depth := s.Readiness()
	if ok || reason != "saturated" {
		t.Fatalf("readiness ok=%v reason=%q depth=%d, want saturated", ok, reason, depth)
	}
	s.Cancel(running.ID)
	s.Cancel(queued.ID)
	waitDone(t, s, running.ID)
	waitDone(t, s, queued.ID)
	if ok, _, _ := s.Readiness(); !ok {
		t.Fatal("readiness stuck after queue drained")
	}
}

// A Monte Carlo snapshot left by a version-1 server is discarded and
// the job runs from sample 0: under version 1 the same job key could
// name a run under another ordering. The identical snapshot under the
// current version resumes, so the version alone decides.
func TestOldVersionCheckpointRestarts(t *testing.T) {
	req := mcRequest(5, 64)
	req.Normalize()
	nl, err := grid.Build(*req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	ordering, err := galerkin.ParseOrdering(req.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	var cp *montecarlo.Checkpoint
	if _, err := montecarlo.Run(sys, montecarlo.Options{
		Samples: req.Samples, Step: req.Step, Steps: req.Steps, Seed: req.Seed, Ordering: ordering,
		CheckpointEvery: 32, OnCheckpoint: func(c *montecarlo.Checkpoint) {
			if cp == nil {
				cp = c
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version int
		resumes int64
	}{{1, 0}, {checkpoint.Version, 1}} {
		dir := t.TempDir()
		store, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(req.Key(), ckptKindMC, cp.NextSample, cp); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, req.Key()+".ckpt")
		var env map[string]json.RawMessage
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &env)
		}
		if err != nil {
			t.Fatal(err)
		}
		env["version"] = json.RawMessage(strconv.Itoa(tc.version))
		if data, err = json.Marshal(env); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Options{ConcurrentJobs: 1, CheckpointDir: dir, CheckpointEvery: 1 << 20})
		sub, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, sub.ID); st.State != StateDone || st.Degraded {
			t.Fatalf("version %d: state %s degraded %v", tc.version, st.State, st.Degraded)
		}
		if got := s.mResumes.Value(); got != tc.resumes {
			t.Errorf("version-%d snapshot: %d resumes, want %d", tc.version, got, tc.resumes)
		}
	}
}
