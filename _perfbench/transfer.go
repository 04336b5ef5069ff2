package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
)

// forestWorkers pins the surrogate's fit and batch prediction to one
// goroutine through the public option. With one worker per CPU the
// op time depended on what else the machine was running.
const forestWorkers = 1

// transferKernels are the four SPAPT kernels; transferPairs are
// (source, target) pairs from the paper's Table IV grid.
var (
	transferKernels = []string{"MM", "ATAX", "COR", "LU"}
	transferPairs   = [][2]string{
		{"Westmere", "Sandybridge"}, {"Sandybridge", "Power7"}, {"Power7", "Westmere"},
		{"Sandybridge", "Westmere"}, {"Westmere", "Power7"}, {"Power7", "Sandybridge"},
	}
)

// transferWL is the transfer workload: one operation is one core.Run at
// the paper's scale. It touches no journal, cache or service.
type transferWL struct {
	seed     uint64
	problems map[string]search.Problem // by kernel + "@" + machine
	digests  map[string]string         // op index -> outcome digest
}

func setupTransfer(_ context.Context, seed uint64, _ string) (workload, error) {
	w := &transferWL{seed: seed, problems: map[string]search.Problem{}, digests: map[string]string{}}
	for _, kn := range transferKernels {
		k, err := kernels.ByName(kn)
		if err != nil {
			return nil, err
		}
		for _, pair := range transferPairs {
			for _, mn := range pair {
				if w.problems[kn+"@"+mn] != nil {
					continue
				}
				m, err := machine.ByName(mn)
				if err != nil {
					return nil, err
				}
				w.problems[kn+"@"+mn] = kernels.NewProblem(k, sim.Target{Machine: m, Compiler: machine.GNU, Threads: 1})
			}
		}
	}
	return w, nil
}

// opAt returns operation i: kernels rotate fastest, then machine pairs.
func (w *transferWL) opAt(i int) (src, tgt search.Problem, opt core.Options) {
	kn := transferKernels[i%len(transferKernels)]
	pair := transferPairs[(i/len(transferKernels))%len(transferPairs)]
	opt = core.Options{
		NMax: 100, PoolSize: 10000, DeltaPct: 20,
		Forest: forest.Params{Trees: 100, Workers: forestWorkers},
		Seed:   opSeed(w.seed, i),
	}
	return w.problems[kn+"@"+pair[0]], w.problems[kn+"@"+pair[1]], opt
}

func (w *transferWL) op(ctx context.Context, i int) error {
	src, tgt, opt := w.opAt(i)
	out, err := core.Run(ctx, src, tgt, opt)
	if err != nil {
		return err
	}
	return w.check(i, out, opt)
}

// check validates an outcome's shape and records its digest; the digest
// must equal that of every other run of operation i.
func (w *transferWL) check(i int, out *core.Outcome, opt core.Options) error {
	if out.Degraded {
		return fmt.Errorf("outcome degraded: %v", out.Warnings)
	}
	for name, res := range map[string]*search.Result{
		"SourceRS": out.SourceRS, "RS": out.RS, "RSp": out.RSp, "RSb": out.RSb,
	} {
		if len(res.Records) != opt.NMax {
			return fmt.Errorf("%s evaluated %d configurations, want %d", name, len(res.Records), opt.NMax)
		}
	}
	for j, rec := range out.RS.Records {
		if rec.Config.Key() != out.SourceRS.Records[j].Config.Key() {
			return fmt.Errorf("RS on the target left the source's order at evaluation %d", j)
		}
	}
	d := digest(out)
	key := strconv.Itoa(i)
	if prev, ok := w.digests[key]; ok && prev != d {
		return fmt.Errorf("outcome digest %s differs from the untraced run's %s", d, prev)
	}
	w.digests[key] = d
	return nil
}

// tracedOp runs operation i as core.Run's steps, in core.Run's order and
// with its seeds, timing the call into each layer. Its outcome must
// equal the untraced one, so a change to core.Run makes it fail rather
// than split time wrongly.
func (w *transferWL) tracedOp(ctx context.Context, i int, lt *layers) (time.Duration, error) {
	bareSrc, bareTgt, opt := w.opAt(i)
	src := timedProblem{bareSrc, lt}
	tgt := timedProblem{bareTgt, lt}
	// call times one search call; its self time is its wall time minus
	// the forest and simulator time inside it.
	var searchSelf time.Duration
	call := func(f func()) time.Duration {
		wall, inner := lt.timed(f, "forest.predict_s", "sim.eval_s")
		searchSelf += wall - inner
		return wall
	}
	start := time.Now()
	out := &core.Outcome{Source: src.Name(), Target: tgt.Name(), Speedups: map[string]core.Speedups{}}

	lt.add("core.collect_s", call(func() {
		out.SourceRS, out.Ta = core.Collect(ctx, src, opt.NMax, rng.NewNamed(opt.Seed, "crn-stream"))
	}))

	var sur *core.Surrogate
	var err error
	fit, _ := lt.timed(func() {
		sur, err = core.FitSurrogate(out.Ta, src.Space(), src.Name(), opt.Forest, rng.NewNamed(opt.Seed, "forest"))
	})
	lt.add("forest.fit_s", fit)
	if err != nil {
		return 0, fmt.Errorf("fitting the surrogate: %w", err)
	}
	lt.count("forest.fit_rows", len(out.Ta.Valid()))
	model := timedModel{sur, lt}

	srcSeq := make([]space.Config, len(out.SourceRS.Records))
	for j, rec := range out.SourceRS.Records {
		srcSeq[j] = rec.Config
	}
	call(func() { out.RS = search.Replay(ctx, tgt, srcSeq, "RS") })
	call(func() {
		out.RSp = search.RSp(ctx, tgt, model,
			search.RSpOptions{NMax: opt.NMax, PoolSize: opt.PoolSize, DeltaPct: opt.DeltaPct},
			rng.NewNamed(opt.Seed, "crn-stream"), rng.NewNamed(opt.Seed, "pool"))
	})
	call(func() {
		out.RSb = search.RSb(ctx, tgt, model,
			search.RSbOptions{NMax: opt.NMax, PoolSize: opt.PoolSize}, rng.NewNamed(opt.Seed, "pool"))
	})
	call(func() { out.RSpf = search.RSpf(ctx, tgt, out.Ta, opt.DeltaPct) })
	call(func() { out.RSbf = search.RSbf(ctx, tgt, out.Ta) })
	lt.count("rsp.evaluated", len(out.RSp.Records))
	lt.count("rsp.considered", len(out.RSp.Records)+out.RSp.Skipped)

	for name, res := range map[string]*search.Result{
		"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf,
	} {
		out.Speedups[name] = core.ComputeSpeedups(out.RS, res)
	}
	correlate(out, tgt.Space(), model)
	lt.add("search.self_s", searchSelf)
	wall := time.Since(start)
	return wall, w.check(i, out, opt)
}

// correlate fills the outcome's correlation fields the way core.Run
// does, predicting through the timed model.
func correlate(out *core.Outcome, spc *space.Space, model timedModel) {
	var preds []float64
	for j, srcRec := range out.SourceRS.Records {
		tgtRec := out.RS.Records[j]
		if !srcRec.Measured() || !tgtRec.Measured() {
			continue
		}
		out.SourceRuns = append(out.SourceRuns, srcRec.RunTime)
		out.TargetRuns = append(out.TargetRuns, tgtRec.RunTime)
		preds = append(preds, model.Predict(spc.Encode(srcRec.Config)))
	}
	if p, err := stats.Pearson(out.SourceRuns, out.TargetRuns); err == nil {
		out.Pearson = p
	}
	if s, err := stats.Spearman(out.SourceRuns, out.TargetRuns); err == nil {
		out.Spearman = s
	}
	if s, err := stats.Spearman(preds, out.TargetRuns); err == nil {
		out.SurrogateSpearman = s
	}
}

func (w *transferWL) verify(context.Context, []int, *layers) []error {
	if err := compareRecorded(fmt.Sprintf("digests-transfer-%d.json", w.seed), w.digests); err != nil {
		return []error{err}
	}
	return nil
}

func (w *transferWL) close() error { return nil }

// digest hashes everything a transfer outcome reports: every run's
// records and skip count, the speedups and the correlations.
func digest(out *core.Outcome) string {
	h := sha256.New()
	num := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(x float64) { num(math.Float64bits(x)) }
	str := func(s string) { num(uint64(len(s))); h.Write([]byte(s)) }
	str(out.Source)
	str(out.Target)
	for _, res := range []*search.Result{out.SourceRS, out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf} {
		str(res.Algorithm)
		str(res.Problem)
		num(uint64(res.Skipped))
		num(uint64(len(res.Records)))
		for _, rec := range res.Records {
			num(uint64(len(rec.Config)))
			for _, v := range rec.Config {
				num(uint64(v))
			}
			f(rec.RunTime)
			f(rec.Cost)
			f(rec.Elapsed)
			num(uint64(rec.Status))
			num(uint64(rec.Retries))
		}
	}
	for _, name := range sortedKeys(out.Speedups) {
		sp := out.Speedups[name]
		str(name)
		f(sp.Performance)
		f(sp.SearchTime)
		if sp.Success {
			num(1)
		} else {
			num(0)
		}
	}
	f(out.Pearson)
	f(out.Spearman)
	f(out.SurrogateSpearman)
	return hex.EncodeToString(h.Sum(nil))
}
