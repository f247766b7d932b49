// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7) and timing the optimizer's hot path. Absolute numbers come from
// the simulated substrate, so the shapes — who wins, by roughly what factor,
// where the crossovers fall — are the reproduction target.
//
// Run with:
//
//	go test -bench=. -benchmem
package stubby_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/bench"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// benchConfig keeps benchmark runs quick while preserving paper-scale
// virtual dataset sizes.
var benchConfig = bench.Config{SizeFactor: 0.2, Seed: 1}

// BenchmarkPaperFigures regenerates the evaluation: one iteration is one
// harness evaluating every declared grid figure — each (workload, variant)
// cell searched and simulated once, however many figures read it, Figure 14's
// subplans included — then Table 1 and Figure 5. The first iteration prints
// what stubby-bench -all prints. The evaluation's claims are not asserted
// here: they are the invariants of BENCH_paper.json, which CI guards through
// stubby-bench -ledger-guard, known failures included.
func BenchmarkPaperFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		out := io.Discard
		if i == 0 {
			out = os.Stdout
		}
		for _, fig := range bench.Figures {
			if err := h.WriteFigure(out, fig); err != nil {
				b.Fatal(err)
			}
		}
		table1, err := h.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range table1 {
			fmt.Fprintf(out, "%-3s %-28s paper=%4.0fGB simulated=%4.0fGB records=%7d jobs=%d\n",
				r.Abbr, r.Title, r.PaperGB, r.VirtualGB, r.Records, r.Jobs)
		}
		fig5, err := h.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range fig5 {
			fmt.Fprintf(out, "%-15s %-12s no-packing=%8.1fs packed=%8.1fs speedup=%.2fx\n",
				r.Transformation, r.Case, r.Unpacked, r.Packed, r.Speedup)
		}
		ledger, err := h.Ledger()
		if err != nil {
			b.Fatal(err)
		}
		// Aggregate metrics: Stubby's geometric-mean speedup over Baseline
		// across workflows, and how many of the claims hold.
		sim := map[[2]string]float64{}
		for _, c := range ledger.Cells {
			sim[[2]string{c.Workload, c.Variant}] = c.SimSec
		}
		logSum := 0.0
		for _, abbr := range workloads.Abbrs() {
			logSum += math.Log(sim[[2]string{abbr, bench.Baseline.Name}] / sim[[2]string{abbr, bench.Stubby.Name}])
		}
		b.ReportMetric(math.Exp(logSum/float64(len(workloads.Abbrs()))), "stubby-geomean-speedup")
		holding := 0
		for _, inv := range ledger.Invariants {
			if inv.Pass {
				holding++
			}
		}
		b.ReportMetric(float64(holding), "invariants-holding")
		b.ReportMetric(float64(len(ledger.Invariants)), "invariants")
	}
}

// optimizeWorkloadsBench optimizes every paper workload through the public
// Session API — one session per workload, bound to that workload's
// paper-scaled cluster, all sharing the given estimate cache (the
// cross-session sharing WithEstimateCache advertises) — and returns total
// What-if computations. Workload construction and profiling run with the
// timer stopped, so ns/op measures only the optimizations.
func optimizeWorkloadsBench(b *testing.B, cache *stubby.EstimateCache) float64 {
	b.Helper()
	b.StopTimer()
	type prepared struct {
		sess *stubby.Session
		flow *stubby.Workflow
	}
	var preps []prepared
	for _, abbr := range workloads.Abbrs() {
		wl, err := stubby.BuildWorkload(abbr, stubby.WorkloadOptions{SizeFactor: benchConfig.SizeFactor, Seed: benchConfig.Seed})
		if err != nil {
			b.Fatal(err)
		}
		opts := []stubby.SessionOption{
			stubby.WithCluster(wl.Cluster),
			stubby.WithSeed(benchConfig.Seed),
			stubby.WithParallelism(4),
		}
		if cache != nil {
			opts = append(opts, stubby.WithEstimateCache(cache))
		}
		sess, err := stubby.NewSession(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Profile(context.Background(), wl.Workflow, wl.DFS); err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prepared{sess: sess, flow: wl.Workflow})
	}
	b.StartTimer()
	var computed float64
	for _, p := range preps {
		res, err := p.sess.Optimize(context.Background(), p.flow)
		if err != nil {
			b.Fatal(err)
		}
		computed += float64(res.WhatIfComputed)
	}
	return computed
}

// BenchmarkOptimizeWorkloadsCacheOff also reports B/op and allocs/op of the
// eight optimizations: set-up runs with the timer stopped, so it is not
// counted.
func BenchmarkOptimizeWorkloadsCacheOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		computed := optimizeWorkloadsBench(b, nil)
		b.ReportMetric(computed, "whatif-computed")
	}
}

func BenchmarkOptimizeWorkloadsCacheOn(b *testing.B) {
	// One cache across iterations: iteration 2+ replays entirely from it,
	// which is exactly the repeated-workflow serving scenario.
	cache := stubby.NewEstimateCache(1 << 18)
	for i := 0; i < b.N; i++ {
		computed := optimizeWorkloadsBench(b, cache)
		b.ReportMetric(computed, "whatif-computed")
		b.ReportMetric(float64(cache.Stats().Hits), "cache-hits-cum")
	}
}
