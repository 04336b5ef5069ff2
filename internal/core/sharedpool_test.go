package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
)

// sameRecords reports the first difference between two search results,
// comparing every float bit for bit.
func sameRecords(a, b *search.Result) (string, bool) {
	if a.Algorithm != b.Algorithm || a.Skipped != b.Skipped || len(a.Records) != len(b.Records) {
		return "algorithm, skip count or length", false
	}
	for i, ra := range a.Records {
		rb := b.Records[i]
		if ra.Config.Key() != rb.Config.Key() ||
			math.Float64bits(ra.RunTime) != math.Float64bits(rb.RunTime) ||
			math.Float64bits(ra.Cost) != math.Float64bits(rb.Cost) ||
			math.Float64bits(ra.Elapsed) != math.Float64bits(rb.Elapsed) ||
			ra.Status != rb.Status || ra.Retries != rb.Retries {
			return "record " + ra.Config.Key(), false
		}
	}
	return "", true
}

// TestRunSharedPoolMatchesSeparateSearches: Run scores one pool for RSp
// and RSb; their results must equal standalone RSp and RSb calls that
// each draw and score their own pool from the same seeds, with tracing
// off and on. A traced Run must report exactly the predictions it
// makes: the pool once, one per candidate RSp considered, and one per
// correlation pair.
func TestRunSharedPoolMatchesSeparateSearches(t *testing.T) {
	for _, kernel := range []string{"LU", "ATAX"} {
		for _, traced := range []bool{false, true} {
			opt := smallOpts(11)
			src := problem(t, kernel, machine.Westmere)
			tgt := problem(t, kernel, machine.Sandybridge)
			ctx, sink := context.Background(), &obs.MemorySink{}
			if traced {
				ctx = obs.WithTracer(ctx, obs.New(sink))
			}
			out, err := Run(ctx, src, tgt, opt)
			if err != nil {
				t.Fatal(err)
			}

			bg := context.Background()
			_, ta := Collect(bg, problem(t, kernel, machine.Westmere), opt.NMax, rng.NewNamed(opt.Seed, "crn-stream"))
			sur, err := FitSurrogate(ta, src.Space(), src.Name(), opt.Forest, rng.NewNamed(opt.Seed, "forest"))
			if err != nil {
				t.Fatal(err)
			}
			rsp := search.RSp(bg, problem(t, kernel, machine.Sandybridge), sur,
				search.RSpOptions{NMax: opt.NMax, PoolSize: opt.PoolSize, DeltaPct: opt.DeltaPct},
				rng.NewNamed(opt.Seed, "crn-stream"), rng.NewNamed(opt.Seed, "pool"))
			rsb := search.RSb(bg, problem(t, kernel, machine.Sandybridge), sur,
				search.RSbOptions{NMax: opt.NMax, PoolSize: opt.PoolSize}, rng.NewNamed(opt.Seed, "pool"))
			if where, ok := sameRecords(out.RSp, rsp); !ok {
				t.Errorf("%s traced=%v: RSp differs from a standalone search at %s", kernel, traced, where)
			}
			if where, ok := sameRecords(out.RSb, rsb); !ok {
				t.Errorf("%s traced=%v: RSb differs from a standalone search at %s", kernel, traced, where)
			}
			if !traced {
				continue
			}

			total, pools := 0, 0
			for _, e := range sink.ByKind(obs.KindModelPredict) {
				total += e.N
				if e.Detail == "pool-score" {
					pools++
					if e.N != opt.PoolSize {
						t.Errorf("%s: pool-score event scored %d rows, want %d", kernel, e.N, opt.PoolSize)
					}
				}
			}
			if pools != 1 {
				t.Errorf("%s: %d pool-score events, want 1", kernel, pools)
			}
			want := opt.PoolSize + len(out.RSp.Records) + out.RSp.Skipped + len(out.SourceRuns)
			if total != want {
				t.Errorf("%s: traced predictions = %d, want %d (pool %d + scan %d + correlation %d)",
					kernel, total, want, opt.PoolSize, len(out.RSp.Records)+out.RSp.Skipped, len(out.SourceRuns))
			}
		}
	}
}
