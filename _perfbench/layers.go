package main

import (
	"time"

	"repro/internal/search"
	"repro/internal/space"
)

// layers accumulates the traced run's per-layer time and counts. The
// timers sit in the benchmark's own code, around calls into each
// layer's public functions; nothing inside the program is traced. All
// calls happen on the benchmark's one goroutine.
type layers struct {
	t map[string]time.Duration
	n map[string]float64
}

func newLayers() *layers {
	return &layers{t: map[string]time.Duration{}, n: map[string]float64{}}
}

// sum adds up the named layer times.
func (lt *layers) sum(names []string) time.Duration {
	var d time.Duration
	for _, k := range names {
		d += lt.t[k]
	}
	return d
}

func (lt *layers) add(name string, d time.Duration) { lt.t[name] += d }
func (lt *layers) count(name string, n int)         { lt.n[name] += float64(n) }

// timeNames lists every per-layer time metric; countNames every count.
var timeNames = []string{
	"forest.predict_s", "forest.fit_s", "sim.eval_s", "search.self_s",
	"core.collect_s", "core.unattributed_s",
	"journal.run_s", "journal.self_s", "evalcache.lookup_s",
	"service.submit_s", "service.status_s", "service.result_s", "service.unattributed_s",
}

var countNames = []string{
	"forest.predict_rows", "forest.fit_rows", "sim.evals",
	"journal.records", "journal.bytes",
	"evalcache.hits", "evalcache.misses",
	"service.polls", "service.state_bytes",
}

// metrics converts the totals to per-operation values over ops
// operations. Every per-layer metric is present on every workload; a
// layer a workload does not reach reads 0.
func (lt *layers) metrics(ops float64) map[string]metric {
	m := map[string]metric{}
	for _, k := range timeNames {
		m[k] = metric{lt.t[k].Seconds() / ops, "s"}
	}
	for _, k := range countNames {
		unit := "count"
		if k == "journal.bytes" || k == "service.state_bytes" {
			unit = "B"
		}
		m[k] = metric{lt.n[k] / ops, unit}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["search.rsp_eval_ratio"] = metric{ratio(lt.n["rsp.evaluated"], lt.n["rsp.considered"]), "ratio"}
	m["evalcache.hit_ratio"] = metric{ratio(lt.n["evalcache.hits"], lt.n["evalcache.hits"]+lt.n["evalcache.misses"]), "ratio"}
	return m
}

// timedModel forwards both the single-row and the batch path of a
// model, so the searches take the same path they take untraced, and
// times them.
type timedModel struct {
	m  search.BatchModel
	lt *layers
}

func (tm timedModel) Predict(x []float64) float64 {
	start := time.Now()
	y := tm.m.Predict(x)
	tm.lt.add("forest.predict_s", time.Since(start))
	tm.lt.count("forest.predict_rows", 1)
	return y
}

func (tm timedModel) PredictAll(X [][]float64) []float64 {
	start := time.Now()
	y := tm.m.PredictAll(X)
	tm.lt.add("forest.predict_s", time.Since(start))
	tm.lt.count("forest.predict_rows", len(X))
	return y
}

// timedProblem times the simulator's Evaluate. It wraps a bare
// simulated problem, which offers nothing beyond search.Problem, so the
// layers above dispatch to it exactly as they would to the problem.
type timedProblem struct {
	search.Problem
	lt *layers
}

func (tp timedProblem) Evaluate(c space.Config) (runTime, cost float64) {
	start := time.Now()
	runTime, cost = tp.Problem.Evaluate(c)
	tp.lt.add("sim.eval_s", time.Since(start))
	tp.lt.count("sim.evals", 1)
	return runTime, cost
}

// timed runs f and returns its wall time along with the growth of the
// named layer times during it.
func (lt *layers) timed(f func(), inner ...string) (wall, innerTime time.Duration) {
	before := make([]time.Duration, len(inner))
	for i, k := range inner {
		before[i] = lt.t[k]
	}
	start := time.Now()
	f()
	wall = time.Since(start)
	for i, k := range inner {
		innerTime += lt.t[k] - before[i]
	}
	return wall, innerTime
}
