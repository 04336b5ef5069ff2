package evalcache

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
)

// atax builds the ATAX kernel problem on Sandybridge — a real
// evaluation stack with a deterministic simulator underneath.
func atax(t testing.TB) search.Problem {
	t.Helper()
	m, err := machine.ByName("Sandybridge")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := machine.CompilerByName("gnu-4.4.7")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName("ATAX")
	if err != nil {
		t.Fatal(err)
	}
	return kernels.NewProblem(k, sim.Target{Machine: m, Compiler: comp, Threads: 1})
}

// TestKeyGolden pins one cache key byte for byte: artifacts exported
// by earlier builds are looked up by these strings.
func TestKeyGolden(t *testing.T) {
	got := key(Scope("ATAX@Sandybridge/gnu-4.4.7/t1", "faults=0.1", "seed=7"), space.Config{0, 12, 3, 105})
	if want := "ATAX@Sandybridge/gnu-4.4.7/t1|faults=0.1|seed=7\x000,12,3,105"; got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
}

func TestCacheGetPutFirstWriteWins(t *testing.T) {
	ch := New()
	cfg := space.Config{1, 2, 3}
	if _, ok := ch.Get("s", cfg); ok {
		t.Fatal("empty cache reported a hit")
	}
	if !ch.Put("s", cfg, Outcome{RunTime: 1.5, Cost: 2.5}) {
		t.Fatal("first Put rejected")
	}
	if ch.Put("s", cfg, Outcome{RunTime: 9, Cost: 9}) {
		t.Fatal("second Put replaced the entry")
	}
	o, ok := ch.Get("s", cfg)
	if !ok || o.RunTime != 1.5 || o.Cost != 2.5 {
		t.Fatalf("got %+v ok=%v, want first-written outcome", o, ok)
	}
	// Scopes partition the key space.
	if _, ok := ch.Get("other", cfg); ok {
		t.Fatal("hit under a different scope")
	}
	hits, misses := ch.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d, %d), want (1, 2)", hits, misses)
	}
}

func TestCacheRejectsPoisonedOutcomes(t *testing.T) {
	ch := New()
	cfg := space.Config{0}
	cases := []Outcome{
		{RunTime: math.NaN(), Cost: 1},
		{RunTime: 1, Cost: math.NaN()},
		{RunTime: 1, Cost: math.Inf(1)},
	}
	for _, o := range cases {
		if ch.Put("s", cfg, o) {
			t.Errorf("Put accepted poisoned outcome %+v", o)
		}
	}
	// +Inf run time is a legitimate failed evaluation.
	if !ch.Put("s", cfg, Outcome{RunTime: math.Inf(1), Cost: 1, Status: search.StatusFailed}) {
		t.Error("Put rejected a legitimate failed outcome")
	}
}

// TestCachedSearchIsBitIdentical is the headline invariant: a search
// over a fully warmed cache runs zero real evaluations and returns a
// Result bit-identical to the uncached run — including under fault
// injection, where outcomes carry statuses and retries.
func TestCachedSearchIsBitIdentical(t *testing.T) {
	const nmax, seed = 40, 7
	build := func() search.Problem {
		p := atax(t)
		inj := faults.Wrap(p, faults.Profile("Sandybridge").ScaledTo(0.3), seed)
		return search.NewResilient(inj, search.ResilientOptions{Retries: 2, Timeout: 50})
	}
	scope := Scope("ATAX@Sandybridge/gnu-4.4.7/t1", "faults=0.3", "seed=7", "retries=2", "timeout=50")

	want := search.RS(context.Background(), build(), nmax, rng.New(seed))

	ch := New()
	first := ch.Problem(build(), scope)
	got1 := search.RS(context.Background(), first, nmax, rng.New(seed))
	if !reflect.DeepEqual(want.Records, got1.Records) {
		t.Fatal("cold cached run diverged from the uncached run")
	}
	if h, m := first.Counts(); h != 0 || m != len(got1.Records) {
		t.Fatalf("cold run counts = (%d, %d), want (0, %d)", h, m, len(got1.Records))
	}

	second := ch.Problem(build(), scope)
	got2 := search.RS(context.Background(), second, nmax, rng.New(seed))
	if !reflect.DeepEqual(want.Records, got2.Records) {
		t.Fatal("warm cached run diverged from the uncached run")
	}
	if h, m := second.Counts(); m != 0 || h != len(got2.Records) {
		t.Fatalf("warm run counts = (%d, %d), want (%d, 0)", h, m, len(got2.Records))
	}
}

// TestCachedProblemDifferentSeedsDoNotCollide: a different injector
// seed is a different scope, so its outcomes are never served from the
// other seed's memo.
func TestCachedProblemDifferentSeedsDoNotCollide(t *testing.T) {
	const nmax = 25
	ch := New()
	run := func(seed uint64) *search.Result {
		p := atax(t)
		inj := faults.Wrap(p, faults.Profile("Sandybridge").ScaledTo(0.4), seed)
		rp := search.NewResilient(inj, search.ResilientOptions{Retries: 1})
		scope := Scope(p.Name(), "faults=0.4", "seed="+string(rune('0'+seed)), "retries=1")
		return search.RS(context.Background(), ch.Problem(rp, scope), nmax, rng.New(seed))
	}
	a1, b := run(1), run(2)
	a2 := run(1)
	if !reflect.DeepEqual(a1.Records, a2.Records) {
		t.Fatal("same-seed rerun diverged")
	}
	if reflect.DeepEqual(a1.Records, b.Records) {
		t.Fatal("different seeds produced identical records (scope collision?)")
	}
}

func TestIngestRecordWarmsTheCache(t *testing.T) {
	p := atax(t)
	res := search.RS(context.Background(), p, 10, rng.New(3))
	ch := New()
	for _, rec := range res.Records {
		if !ch.IngestRecord("s", rec) {
			t.Fatal("ingest rejected a live record")
		}
	}
	cp := ch.Problem(p, "s")
	got := search.RS(context.Background(), cp, 10, rng.New(3))
	if !reflect.DeepEqual(res.Records, got.Records) {
		t.Fatal("journal-warmed run diverged")
	}
	if _, m := cp.Counts(); m != 0 {
		t.Fatalf("journal-warmed run evaluated %d configurations for real", m)
	}
}

func TestArtifactRoundTripIsDeterministic(t *testing.T) {
	ch := New()
	ch.Put("a|x", space.Config{1, 2}, Outcome{RunTime: 1.25, Cost: 3.5})
	ch.Put("a|x", space.Config{2, 1}, Outcome{RunTime: math.Inf(1), Cost: 0.5, Status: search.StatusFailed})
	ch.Put("b|y", space.Config{0}, Outcome{RunTime: 7.75, Cost: 9, Status: search.StatusCensored, Retries: 2})

	var buf1, buf2 bytes.Buffer
	if err := ch.Export(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := ch.Export(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two exports of the same cache differ")
	}

	ch2 := New()
	stats, err := ch2.Import(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 3 || stats.Skipped != 0 || stats.Total != 3 {
		t.Fatalf("import stats = %+v", stats)
	}
	var buf3 bytes.Buffer
	if err := ch2.Export(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
		t.Fatal("import→export round trip changed the artifact bytes")
	}

	// Re-importing is a no-op (first write wins).
	stats, err = ch2.Import(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Skipped != 3 {
		t.Fatalf("re-import stats = %+v", stats)
	}
}

func TestImportRejectsCorruptArtifacts(t *testing.T) {
	cases := map[string]string{
		"truncated":        `{"version":1,"entries":[{"scope":"s","config":[1]`,
		"bad version":      `{"version":9,"entries":[]}`,
		"empty scope":      `{"version":1,"entries":[{"scope":"","config":[1],"run":1,"cost":1,"status":"ok"}]}`,
		"empty config":     `{"version":1,"entries":[{"scope":"s","config":[],"run":1,"cost":1,"status":"ok"}]}`,
		"negative level":   `{"version":1,"entries":[{"scope":"s","config":[-1],"run":1,"cost":1,"status":"ok"}]}`,
		"unknown status":   `{"version":1,"entries":[{"scope":"s","config":[1],"run":1,"cost":1,"status":"wat"}]}`,
		"negative cost":    `{"version":1,"entries":[{"scope":"s","config":[1],"run":1,"cost":-2,"status":"ok"}]}`,
		"missing run":      `{"version":1,"entries":[{"scope":"s","config":[1],"cost":1,"status":"ok"}]}`,
		"negative retries": `{"version":1,"entries":[{"scope":"s","config":[1],"run":1,"cost":1,"status":"ok","retries":-3}]}`,
	}
	for name, doc := range cases {
		ch := New()
		_, err := ch.Import(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s: import accepted corrupt artifact", name)
			continue
		}
		if !strings.Contains(err.Error(), "bad artifact") {
			t.Errorf("%s: error %v does not wrap ErrBadArtifact", name, err)
		}
		if ch.Len() != 0 {
			t.Errorf("%s: corrupt import half-applied %d entries", name, ch.Len())
		}
	}
}

// TestConcurrentSessions hammers one cache from many goroutines the way
// the service does — run with -race.
func TestConcurrentSessions(t *testing.T) {
	p := atax(t)
	ch := New()
	var wg sync.WaitGroup
	results := make([]*search.Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp := ch.Problem(p, "shared")
			results[i] = search.RS(context.Background(), cp, 20, rng.New(11))
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Records, results[i].Records) {
			t.Fatalf("concurrent session %d diverged", i)
		}
	}
}
