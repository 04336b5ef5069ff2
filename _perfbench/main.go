// Command perfbench is the repository's benchmark: one program that
// drives the transfer experiment (internal/core) and the tuning daemon
// (internal/service) through their public APIs, checks the output of
// every operation, and prints end-to-end or per-layer metrics.
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench --workload transfer|daemon-cold --seed N \
//	          --seconds S --trace 0|1
//
// With --trace 0 the run is untraced: it sets the workload up several
// times (setup_s is the median), then runs operations in a closed loop
// with one client for S seconds and reports latency, throughput and
// memory. With --trace 1 it runs a fixed number of operations twice,
// first untraced and then with timers around the calls into each layer,
// and reports per-layer time and counts per operation. Either way the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload is a fixed list of operations derived from --seed, so
// two runs with one seed do identical work. Results that must repeat
// across runs with one seed (transfer digests, per-layer counts) are
// kept under .bench_build/perfbench/ and compared on the next run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stateRoot holds everything the benchmark writes: each run's state
// directory and the per-seed records later runs compare against. It is
// relative to the working directory, the checkout root.
const stateRoot = ".bench_build/perfbench"

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload after set-up. op runs operation i
// untraced; tracedOp runs it with the layer timers in lt and returns
// the operation's wall time. Both check the operation's output and
// return an error when it is wrong. verify runs once after the timed
// phase, for checks whose reference is too costly to compute inside
// it; in a traced run it also records end-of-run counts in lt.
type workload interface {
	op(ctx context.Context, i int) error
	tracedOp(ctx context.Context, i int, lt *layers) (time.Duration, error)
	verify(ctx context.Context, done []int, lt *layers) []error
	close() error
}

// spec describes one workload: how to set it up and how many
// operations a traced run measures.
type spec struct {
	setup func(ctx context.Context, seed uint64, dir string) (workload, error)
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the median, so one slow repetition does not move it.
	setupReps int
	// tailPct is the percentile op_tail_s is read at, over blocks of
	// tailBlock consecutive operations (0: the whole run); op_tail_s is
	// the median over the blocks. The percentile is fixed per workload,
	// because a percentile that moved with the operation count moved the
	// metric with it, and each block leaves ten operations beyond it. A
	// run too short for one block reads the whole run, falling back to a
	// lower percentile if it must. Contention from other guests on the
	// host comes in bursts of seconds; a tail read over the whole run
	// followed the share of the run they covered, the median over blocks
	// moves only when they cover half of it.
	tailPct   float64
	tailBlock int
	// rateBlock is the block of consecutive operations ops_per_s is
	// measured over (0: the whole run); ops_per_s is the median over the
	// blocks, for the same reason. A block is one pass through the
	// kernels (transfer) or through the whole rotation (daemon-cold), so
	// every block does a like mix of work.
	rateBlock int
	// rssOps is the operation after which peak_rss_mb is read, so that
	// it covers the same work however many operations the run reaches.
	rssOps int
	// tracedOps is the fixed operation count of a traced run; fixing it
	// makes the per-layer counts repeat exactly for a seed.
	tracedOps int
	// tracedOffset is where the traced pass starts in the operation
	// list. The untraced pass of a traced run covers ops [0, tracedOps);
	// a workload whose operations must stay cold starts the traced pass
	// after them so it never repeats one.
	tracedOffset int
	// parts are the layer times that, with the remainder, partition a
	// traced operation's wall time; remainder is the name under which
	// the unattributed rest is reported.
	parts     []string
	remainder string
}

var (
	transferParts = []string{"sim.eval_s", "forest.predict_s", "forest.fit_s", "search.self_s"}
	daemonParts   = []string{"journal.run_s", "service.submit_s", "service.status_s", "service.result_s"}
)

var specs = map[string]spec{
	"transfer": {setup: setupTransfer, setupReps: 101, tailPct: 75, tailBlock: 0, rateBlock: len(transferKernels),
		rssOps: 48, tracedOps: 8, tracedOffset: 0, parts: transferParts, remainder: "core.unattributed_s"},
	"daemon-cold": {setup: setupDaemon, setupReps: 101, tailPct: 90, tailBlock: 100, rateBlock: daemonRotation,
		rssOps: 100, tracedOps: 40, tracedOffset: 40, parts: daemonParts, remainder: "service.unattributed_s"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "transfer | daemon-cold")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(stateRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Write-back of files from the build or an earlier run would land in
	// the timed phase and slow its fsyncs; flush it first, and flush this
	// run's state before exiting. The state is kept, not removed: freeing
	// a run's blocks slowed the fsyncs of the runs after it by up to 1.7x
	// (ext4 mounted with discard on a virtual disk), so run-* directories
	// accumulate under stateRoot until the user deletes .bench_build.
	syscall.Sync()
	defer syscall.Sync()

	ctx := context.Background()
	var rep *report
	var env map[string]any
	if *trace == 0 {
		rep, env, err = runUntraced(ctx, sp, *seed, time.Duration(*seconds)*time.Second, runDir)
	} else {
		rep, env, err = runTraced(ctx, *name, sp, *seed, runDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env["workload"] = *name
	env["seed"] = *seed
	env["trace"] = *trace
	for k, v := range environment() {
		env[k] = v
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(envLine))
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setupMany sets the workload up sp.setupReps times in fresh directories
// and keeps the last one; every earlier one is closed. It returns the
// median set-up time.
func setupMany(ctx context.Context, sp spec, seed uint64, runDir string) (workload, float64, error) {
	var times []float64
	var w workload
	for rep := 0; rep < sp.setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, 0, err
			}
		}
		dir := filepath.Join(runDir, "setup-"+strconv.Itoa(rep))
		start := time.Now()
		nw, err := sp.setup(ctx, seed, dir)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		w = nw
	}
	return w, median(times), nil
}

// runUntraced measures the end-to-end metrics: set-up, then a closed
// loop of operations for the given duration.
func runUntraced(ctx context.Context, sp spec, seed uint64, d time.Duration, runDir string) (*report, map[string]any, error) {
	w, setupS, err := setupMany(ctx, sp, seed, runDir)
	if err != nil {
		return nil, nil, err
	}
	var lat []float64
	rss := 0.0
	var done []int
	var errs []error
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		err := w.op(ctx, i)
		lat = append(lat, time.Since(t0).Seconds())
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", i, err))
		} else {
			done = append(done, i)
		}
		if i+1 == sp.rssOps {
			if rss, err = peakRSSMB(); err != nil {
				return nil, nil, err
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	if rss == 0 {
		if rss, err = peakRSSMB(); err != nil {
			return nil, nil, err
		}
	}
	errs = append(errs, w.verify(ctx, done, nil)...)
	if err := w.close(); err != nil {
		return nil, nil, err
	}
	tail, pct := blockTail(lat, sp.tailPct, sp.tailBlock)
	rep := &report{
		Attempted: len(lat),
		Failed:    failedOps(errs, len(lat)),
		Metrics: map[string]metric{
			"setup_s":     {setupS, "s"},
			"op_p50_s":    {median(lat), "s"},
			"op_tail_s":   {tail, "s"},
			"ops_per_s":   {blockRate(lat, sp.rateBlock), "1/s"},
			"peak_rss_mb": {rss, "MB"},
		},
	}
	rep.Correct = len(errs) == 0
	logErrors(errs)
	env := map[string]any{
		"ops": len(lat), "timed_s": elapsed,
		"op_tail_percentile": pct, "op_tail_block_ops": sp.tailBlock, "ops_per_s_block_ops": sp.rateBlock,
		"peak_rss_after_ops": min(len(lat), sp.rssOps),
	}
	return rep, env, nil
}

// runTraced measures the per-layer metrics: one set-up, a fixed number
// of untraced operations, then the same number traced.
func runTraced(ctx context.Context, name string, sp spec, seed uint64, runDir string) (*report, map[string]any, error) {
	w, err := sp.setup(ctx, seed, filepath.Join(runDir, "setup"))
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	var errs []error
	var done []int
	var plain, traced []float64
	for i := 0; i < sp.tracedOps; i++ {
		t0 := time.Now()
		err := w.op(ctx, i)
		plain = append(plain, time.Since(t0).Seconds())
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		done = append(done, i)
	}
	lt := newLayers()
	var wallSum time.Duration
	for i := sp.tracedOffset; i < sp.tracedOffset+sp.tracedOps; i++ {
		before := lt.sum(sp.parts)
		wall, err := w.tracedOp(ctx, i, lt)
		lt.add(sp.remainder, wall-(lt.sum(sp.parts)-before))
		wallSum += wall
		traced = append(traced, wall.Seconds())
		if err != nil {
			errs = append(errs, fmt.Errorf("traced op %d: %w", i, err))
			continue
		}
		done = append(done, i)
	}
	errs = append(errs, w.verify(ctx, done, lt)...)
	if err := w.close(); err != nil {
		return nil, nil, err
	}
	n := float64(sp.tracedOps)
	metrics := lt.metrics(n)
	metrics["bench.trace_overhead"] = metric{median(traced) / median(plain), "ratio"}
	if err := checkRepeatCounts(name, seed, metrics); err != nil {
		errs = append(errs, err)
	}
	attempted := len(plain) + len(traced)
	rep := &report{Attempted: attempted, Failed: failedOps(errs, attempted), Metrics: metrics}
	rep.Correct = len(errs) == 0
	logErrors(errs)
	partition := map[string]float64{"op_wall_s": wallSum.Seconds() / n}
	for _, k := range append(sp.parts, sp.remainder) {
		partition[k] = metrics[k].Value
	}
	env := map[string]any{"ops": sp.tracedOps, "partition_per_op": partition}
	return rep, env, nil
}

// failedOps counts failures against the attempted operations; a
// failure found after the timed phase still belongs to one of them.
func failedOps(errs []error, attempted int) int {
	if len(errs) > attempted {
		return attempted
	}
	return len(errs)
}

func logErrors(errs []error) {
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// repeatCounts are the per-layer counts that must be identical between
// two runs with one seed; later changes may cite them.
var repeatCounts = []string{
	"sim.evals", "forest.fit_rows", "forest.predict_rows",
	"evalcache.hits", "evalcache.misses", "journal.records",
}

// checkRepeatCounts compares this run's exact-repeat counts with those
// an earlier traced run with the same seed recorded, recording them if
// this is the first such run.
func checkRepeatCounts(name string, seed uint64, m map[string]metric) error {
	got := map[string]float64{}
	for _, k := range repeatCounts {
		got[k] = m[k].Value
	}
	return compareRecorded(fmt.Sprintf("counts-%s-%d.json", name, seed), got)
}

// compareRecorded checks values against the copy stored under name by
// an earlier run, storing them when there is none. Keys the stored
// copy lacks are added.
func compareRecorded[V comparable](name string, got map[string]V) error {
	path := filepath.Join(stateRoot, name)
	want := map[string]V{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	var diffs []string
	grown := false
	for _, k := range sortedKeys(got) {
		w, ok := want[k]
		switch {
		case !ok:
			want[k] = got[k]
			grown = true
		case w != got[k]:
			diffs = append(diffs, fmt.Sprintf("%s: %v, earlier run with this seed %v", k, got[k], w))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("results differ from an earlier run with the same seed: %s", strings.Join(diffs, "; "))
	}
	if !grown {
		return nil
	}
	out, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// environment records what a result depends on besides the code.
func environment() map[string]any {
	env := map[string]any{
		"go":             runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"forest_workers": forestWorkers,
		"commit":         "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
