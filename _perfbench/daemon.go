package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	autotune "repro"
	"repro/internal/evalcache"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/opentuner"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/space"
)

const (
	// sessionBudget is every session's evaluation budget.
	sessionBudget = 100
	// faultRate is the injected failure rate of every request. With
	// faults on, a session's evaluation-cache scope includes its seed, so
	// a daemon-cold session never meets another session's entries; with
	// none, sessions on one kernel and machine share a scope and a search
	// that revisits a region could hit the cache.
	faultRate = 0.02
	// minPoll and maxPoll bound the client's pause between status polls.
	// It sleeps half the session's remaining time, projected from its
	// progress so far, within these bounds. Its last poll then lands
	// within about minPoll of the end, about 1% of a 50 ms session, and a
	// wrong projection costs at most maxPoll. Polling every minPoll
	// throughout kept a CPU a third busy answering polls, and session
	// latency then followed host CPU contention.
	minPoll = 500 * time.Microsecond
	maxPoll = 2 * time.Millisecond
)

var (
	daemonKernels  = []string{"MM", "ATAX", "COR", "LU"}
	daemonAlgos    = []string{"rs", "ensemble"}
	daemonMachines = []string{"Westmere", "Sandybridge", "Power7"}
)

// daemonRotation is the length of one pass through every kernel,
// algorithm and machine.
var daemonRotation = len(daemonKernels) * len(daemonAlgos) * len(daemonMachines)

// daemonWL is the daemon-cold workload: one operation is one session
// submitted over HTTP to an in-process service.Server, polled until
// done, and its result fetched.
type daemonWL struct {
	seed   uint64
	dir    string
	cancel context.CancelFunc
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// results holds each operation's result for verify.
	results map[int]service.ResultJSON
	// mirror is the traced replay's evaluation cache, loaded from the
	// server's cache when tracing starts.
	mirror *evalcache.Cache
}

// setupDaemon starts a server with default options in a fresh state
// directory and serves it on loopback.
func setupDaemon(ctx context.Context, seed uint64, dir string) (workload, error) {
	sctx, cancel := context.WithCancel(ctx)
	srv, err := service.New(sctx, service.Options{Root: filepath.Join(dir, "state")})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		srv.Close()
		return nil, err
	}
	w := &daemonWL{
		seed: seed, dir: dir, cancel: cancel, srv: srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		results: map[int]service.ResultJSON{},
	}
	go func() { w.served <- w.hs.Serve(ln) }()
	return w, nil
}

// opAt returns operation i's request, each with a seed of its own.
// Kernels rotate fastest, then the algorithm mix, then machines.
func (w *daemonWL) opAt(i int) service.Request {
	return service.Request{
		Kernel:    daemonKernels[i%len(daemonKernels)],
		Machine:   daemonMachines[(i/(len(daemonKernels)*len(daemonAlgos)))%len(daemonMachines)],
		Algorithm: daemonAlgos[(i/len(daemonKernels))%len(daemonAlgos)],
		Budget:    sessionBudget, Seed: opSeed(w.seed, i), Faults: faultRate,
	}
}

func (w *daemonWL) op(ctx context.Context, i int) error {
	_, err := w.run(ctx, i, nil)
	return err
}

// run submits operation i's session and checks its result.
func (w *daemonWL) run(ctx context.Context, i int, lt *layers) (service.ResultJSON, error) {
	id, body, st, err := w.session(ctx, w.opAt(i), lt)
	if err != nil {
		return service.ResultJSON{}, err
	}
	var res service.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("decoding result: %w", err)
	}
	if st.CacheHits != 0 || st.CacheMisses != len(res.Records) {
		return res, fmt.Errorf("session %s: %d cache hits, %d misses over %d evaluations", id, st.CacheHits, st.CacheMisses, len(res.Records))
	}
	w.results[i] = res
	return res, nil
}

// session submits req, polls until the session is done and fetches its
// result body. With lt set it times the client's calls into the service.
func (w *daemonWL) session(ctx context.Context, req service.Request, lt *layers) (string, []byte, service.Status, error) {
	var st service.Status
	payload, err := json.Marshal(req)
	if err != nil {
		return "", nil, st, err
	}
	if err := w.call(ctx, http.MethodPost, "/sessions", payload, http.StatusCreated, &st, lt, "service.submit_s"); err != nil {
		return "", nil, st, err
	}
	id := st.ID
	start := time.Now()
	for {
		if err := w.call(ctx, http.MethodGet, "/sessions/"+id, nil, http.StatusOK, &st, lt, "service.status_s"); err != nil {
			return id, nil, st, err
		}
		if lt != nil {
			lt.count("service.polls", 1)
		}
		if st.State == service.StateDone {
			break
		}
		if st.State != service.StatePending && st.State != service.StateRunning {
			return id, nil, st, fmt.Errorf("session %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(pollWait(time.Since(start), st.Evaluations, req.Budget))
	}
	var body []byte
	err = w.call(ctx, http.MethodGet, "/sessions/"+id+"/result", nil, http.StatusOK, &body, lt, "service.result_s")
	return id, body, st, err
}

// pollWait is the pause before the next status poll of a session that
// has run for elapsed and finished done of its budget evaluations.
func pollWait(elapsed time.Duration, done, budget int) time.Duration {
	if done <= 0 || done >= budget {
		return minPoll
	}
	remaining := elapsed * time.Duration(budget-done) / time.Duration(done)
	return min(maxPoll, max(minPoll, remaining/2))
}

// call makes one HTTP request and decodes the response into out (or
// stores the raw body when out is a *[]byte). Any status other than
// want — including 503 for a full queue — is an error.
func (w *daemonWL) call(ctx context.Context, method, path string, payload []byte, want int, out any, lt *layers, timer string) error {
	var start time.Time
	if lt != nil {
		start = time.Now()
		defer func() { lt.add(timer, time.Since(start)) }()
	}
	hreq, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = body
		return nil
	}
	return json.Unmarshal(body, out)
}

// tracedOp runs operation i's session with the client calls timed, then
// replays the same request through journal.RunRS or journal.Run over
// the service's layer stack, built from the same public constructors
// with timers between the layers, in a scratch directory. The replay
// stands in for the server's work, which is not traced.
func (w *daemonWL) tracedOp(ctx context.Context, i int, lt *layers) (time.Duration, error) {
	if w.mirror == nil {
		var buf bytes.Buffer
		if err := w.srv.Cache().Export(&buf); err != nil {
			return 0, err
		}
		w.mirror = evalcache.New()
		if _, err := w.mirror.Import(&buf); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	got, err := w.run(ctx, i, lt)
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	req := w.opAt(i)
	res, err := w.replay(ctx, req, filepath.Join(w.dir, "replay-"+strconv.Itoa(i)), lt)
	if err != nil {
		return wall, fmt.Errorf("replay: %w", err)
	}
	if !reflect.DeepEqual(resultRecords(res), got.Records) || res.Algorithm != got.Algorithm {
		return wall, fmt.Errorf("replay of session %s does not reproduce its result", got.ID)
	}
	return wall, nil
}

// replay runs req the way a service session runs it:
// journal(cache(resilient(faults(simulator)))), timing each layer.
func (w *daemonWL) replay(ctx context.Context, req service.Request, dir string, lt *layers) (*search.Result, error) {
	base, err := autotune.NewKernelProblem(req.Kernel, req.Machine, "gnu-4.4.7", 1)
	if err != nil {
		return nil, err
	}
	fp := faults.Wrap(timedProblem{base, lt}, faults.Profile(req.Machine).ScaledTo(req.Faults), req.Seed)
	stack := search.NewResilient(fp, search.ResilientOptions{Retries: 2})
	cp := w.mirror.Problem(stack, requestScope(req, base.Name()))
	top := timedCache{cp, lt}
	extra := map[string]string{
		"problem": req.Kernel, "annotation": "", "machine": req.Machine,
		"compiler": "gnu-4.4.7", "threads": "1", "algo": req.Algorithm,
		"faults": strconv.FormatFloat(req.Faults, 'g', -1, 64), "retries": "2", "timeout": "0",
	}

	simBefore, cacheBefore := lt.t["sim.eval_s"], lt.t["cache.total"]
	var res *search.Result
	var info *journal.RunInfo
	start := time.Now()
	if req.Algorithm == "rs" {
		res, info, err = journal.RunRS(ctx, dir, top, req.Budget, req.Seed, extra, journal.WrapOptions{})
	} else {
		meta := journal.Meta{Problem: top.Name(), Algorithm: req.Algorithm, Seed: req.Seed, NMax: req.Budget, Extra: extra}
		res, info, err = journal.Run(ctx, dir, meta, top, journal.WrapOptions{}, func(ctx context.Context, p search.Problem) *search.Result {
			r, _ := opentuner.New(opentuner.Options{NMax: req.Budget}, rng.New(req.Seed)).Run(ctx, p)
			return r
		})
	}
	run := time.Since(start)
	if err != nil {
		return nil, err
	}
	if !info.Done {
		return nil, errors.New("replay did not finish")
	}
	sim := lt.t["sim.eval_s"] - simBefore
	cache := lt.t["cache.total"] - cacheBefore
	lt.add("journal.run_s", run)
	lt.add("journal.self_s", run-cache)
	lt.add("evalcache.lookup_s", cache-sim)
	hits, misses := cp.Counts()
	lt.count("evalcache.hits", hits)
	lt.count("evalcache.misses", misses)

	js, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	lt.count("journal.records", js.Len())
	if err := js.Close(); err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	lt.count("journal.bytes", int(size))
	return res, nil
}

// requestScope is the evaluation-cache scope the service gives a
// request with faults on (DESIGN.md §12): the problem plus every
// evaluator setting, the injector seed included.
func requestScope(req service.Request, problem string) string {
	return evalcache.Scope(problem,
		"faults="+strconv.FormatFloat(req.Faults, 'g', -1, 64), "retries=2", "timeout=0",
		"seed="+strconv.FormatUint(req.Seed, 10))
}

// resultRecords converts a search result to the service's wire records.
func resultRecords(res *search.Result) []service.RecordJSON {
	out := make([]service.RecordJSON, 0, len(res.Records))
	for _, rec := range res.Records {
		rj := service.RecordJSON{
			Config: rec.Config, Cost: rec.Cost, Elapsed: rec.Elapsed,
			Status: rec.Status.String(), Retries: rec.Retries,
		}
		if !math.IsInf(rec.RunTime, 0) && !math.IsNaN(rec.RunTime) {
			rt := rec.RunTime
			rj.Run = &rt
		}
		out = append(out, rj)
	}
	return out
}

// verify checks every finished session against an in-process control
// run of the same request through the root API. The controls run on one
// goroutine per CPU.
func (w *daemonWL) verify(ctx context.Context, done []int, lt *layers) []error {
	jobErrs := make([]error, len(done))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				if err := checkControl(ctx, w.opAt(done[j]), w.results[done[j]]); err != nil {
					jobErrs[j] = fmt.Errorf("op %d: %w", done[j], err)
				}
			}
		}()
	}
	for j := range done {
		next <- j
	}
	close(next)
	wg.Wait()
	var errs []error
	for _, err := range jobErrs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if lt != nil {
		size, err := dirBytes(filepath.Join(w.dir, "state"))
		if err != nil {
			return append(errs, err)
		}
		lt.count("service.state_bytes", int(size))
	}
	return errs
}

// checkControl runs req in process through the root API and compares
// the result with the one the service returned.
func checkControl(ctx context.Context, req service.Request, got service.ResultJSON) error {
	p, err := autotune.NewKernelProblem(req.Kernel, req.Machine, "gnu-4.4.7", 1)
	if err != nil {
		return err
	}
	p = autotune.WithFaults(p, autotune.FaultProfile(req.Machine).ScaledTo(req.Faults), req.Seed,
		autotune.ResilientOptions{Retries: 2})
	var want *autotune.Result
	if req.Algorithm == "rs" {
		want = autotune.RandomSearch(ctx, p, req.Budget, req.Seed)
	} else {
		want, _ = autotune.EnsembleTune(ctx, p, req.Budget, req.Seed)
	}
	if !reflect.DeepEqual(resultRecords(want), got.Records) || want.Algorithm != got.Algorithm || want.Problem != got.Problem {
		return errors.New("result differs from the control run")
	}
	return nil
}

// close stops the HTTP server and then the service, waiting for both.
func (w *daemonWL) close() error {
	err := w.hs.Shutdown(context.Background())
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.client.CloseIdleConnections()
	w.cancel()
	w.srv.Close()
	return err
}

// timedCache times the evaluation-cache layer; the simulator time
// inside it is subtracted to give the lookup time.
type timedCache struct {
	cp *evalcache.CachedProblem
	lt *layers
}

func (tc timedCache) Name() string        { return tc.cp.Name() }
func (tc timedCache) Space() *space.Space { return tc.cp.Space() }

func (tc timedCache) Evaluate(c space.Config) (float64, float64) {
	start := time.Now()
	defer func() { tc.lt.add("cache.total", time.Since(start)) }()
	return tc.cp.Evaluate(c)
}

func (tc timedCache) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	start := time.Now()
	defer func() { tc.lt.add("cache.total", time.Since(start)) }()
	return tc.cp.EvaluateFull(ctx, c)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
