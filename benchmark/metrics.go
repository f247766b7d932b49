package main

import (
	"math"
	"sort"
)

// metricDef names one metric. End-to-end metrics carry the bound by which
// they may worsen before a change counts as a regression; per-layer metrics
// carry their layer (a package of the repository) and the end-to-end metric
// and workload they are expected to move, written down before measuring.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	// Moves is "none", or a ';'-separated list of metric@workload[,workload].
	Moves string
	// Exact marks a count that repeats exactly for the same seed and the
	// same number of rounds.
	Exact bool
}

const everywhere = "lib-search,svc-miss,svc-hit,cluster-hit"

// endToEnd lists what a caller of the optimizer sees. Every workload
// reports all of them. Failures are not a metric here because a metric may
// never read 0: they are the attempted/failed counts of every result.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_time_rel", Unit: "ref", Better: "lower", Bound: 0.25},
	{Name: "throughput_rel", Unit: "jobs/ref", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_job", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "plan_speedup", Unit: "ratio", Better: "higher", Bound: 0.20},
}

// perLayer lists the outside-in layer metrics of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		hits    = "svc-hit,cluster-hit"
		search  = "lib-search,svc-miss"
		timing  = "job_time_rel@"
		tput    = "throughput_rel@"
		alloc   = "alloc_mb_per_job@"
		service = "svc-miss,svc-hit,cluster-hit"
	)
	defs := []metricDef{
		// The load generator's real-unit mirrors of the relative metrics;
		// ref_ms is the machine-speed witness.
		{Name: "harness.job_ms_p50", Unit: "ms", Better: "lower", Layer: "harness", Moves: timing + everywhere},
		{Name: "harness.job_ms_tail", Unit: "ms", Better: "lower", Layer: "harness", Moves: "none"},
		{Name: "harness.jobs_per_s", Unit: "1/s", Better: "higher", Layer: "harness", Moves: tput + everywhere},
		{Name: "harness.ref_ms", Unit: "ms", Better: "lower", Layer: "harness", Moves: "none"},
		{Name: "harness.round_spread", Unit: "ratio", Better: "lower", Layer: "harness", Moves: "none"},
		{Name: "harness.attempts", Unit: "count", Better: "higher", Layer: "harness", Moves: "none"},
		{Name: "harness.refused", Unit: "count", Better: "lower", Layer: "harness", Moves: "none", Exact: true},

		// CPU freed anywhere raises svc-miss throughput by more than its
		// latency share (two submitters saturate two cores); waiting
		// (polling, fsync) shows in job time but not in CPU.
		{Name: "process.cpu_ms_per_job", Unit: "ms", Better: "lower", Layer: "process", Moves: tput + "svc-miss"},
		{Name: "process.allocs_per_job", Unit: "count", Better: "lower", Layer: "process", Moves: alloc + everywhere},
		{Name: "process.gc_cycles_per_job", Unit: "count", Better: "lower", Layer: "process", Moves: alloc + everywhere},
		{Name: "process.gc_pause_ms_per_job", Unit: "ms", Better: "lower", Layer: "process", Moves: timing + everywhere},
		{Name: "process.heap_peak_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "none"},
		{Name: "process.goroutines_peak", Unit: "count", Better: "lower", Layer: "process", Moves: "none"},
	}
	for _, abbr := range allAbbrs {
		moves := timing + "lib-search"
		if abbr == "BR" { // about 40 % of a pass
			moves += ";" + tput + "lib-search"
		}
		defs = append(defs, metricDef{Name: "session.optimize_ms." + abbr, Unit: "ms", Better: "lower", Layer: "session", Moves: moves})
	}
	return append(defs, []metricDef{
		{Name: "session.new_us", Unit: "us", Better: "lower", Layer: "session", Moves: "none"},

		// Counts must stay exactly constant under any change that claims
		// byte-identical plans, and read 0 on the hit workloads.
		{Name: "optimizer.units_per_job", Unit: "count", Better: "lower", Layer: "optimizer", Moves: timing + search, Exact: true},
		{Name: "optimizer.subplans_per_job", Unit: "count", Better: "lower", Layer: "optimizer", Moves: timing + search, Exact: true},
		{Name: "optimizer.whatif_calls_per_job", Unit: "count", Better: "lower", Layer: "optimizer", Moves: timing + search, Exact: true},
		{Name: "optimizer.whatif_computed_per_job", Unit: "count", Better: "lower", Layer: "optimizer", Moves: timing + search},
		{Name: "optimizer.flow_cards_per_job", Unit: "count", Better: "lower", Layer: "optimizer", Moves: timing + search + ";" + alloc + search},
		{Name: "optimizer.vertical_share", Unit: "ratio", Better: "lower", Layer: "optimizer", Moves: "none"},
		{Name: "optimizer.horizontal_share", Unit: "ratio", Better: "lower", Layer: "optimizer", Moves: "none"},

		// Per-call times multiplied by optimizer.flow_cards_per_job move
		// lib-search; the cache hit ratio moves svc-miss only (lib-search
		// runs without a cache: prediction there, no change).
		{Name: "whatif.estimate_full_us", Unit: "us", Better: "lower", Layer: "whatif", Moves: timing + search},
		{Name: "whatif.prepare_us", Unit: "us", Better: "lower", Layer: "whatif", Moves: timing + search},
		{Name: "whatif.estimate_changed_us", Unit: "us", Better: "lower", Layer: "whatif", Moves: timing + search},
		{Name: "whatif.us_per_flow_card", Unit: "us", Better: "lower", Layer: "whatif", Moves: timing + search},
		{Name: "whatif.estcache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "whatif", Moves: timing + "svc-miss;" + tput + "svc-miss"},
		{Name: "whatif.estcache_entries", Unit: "count", Better: "lower", Layer: "whatif", Moves: "none"},

		// Moves lib-search only if search bookkeeping, not estimation, is
		// the cost; expected small.
		{Name: "rrs.overhead_us_per_eval", Unit: "us", Better: "lower", Layer: "rrs", Moves: timing + "lib-search"},

		// One legal application each; plan clones dominate.
		{Name: "trans.intra_vertical_us", Unit: "us", Better: "lower", Layer: "trans", Moves: timing + "lib-search;" + alloc + "lib-search"},
		{Name: "trans.inter_vertical_us", Unit: "us", Better: "lower", Layer: "trans", Moves: timing + "lib-search;" + alloc + "lib-search"},
		{Name: "trans.horizontal_us", Unit: "us", Better: "lower", Layer: "trans", Moves: timing + "lib-search;" + alloc + "lib-search"},
		{Name: "trans.enumerate_partition_us", Unit: "us", Better: "lower", Layer: "trans", Moves: timing + "lib-search"},

		// Fingerprint runs twice per submission; clone is the search's.
		{Name: "wf.fingerprint_us", Unit: "us", Better: "lower", Layer: "wf", Moves: timing + hits},
		{Name: "wf.clone_us", Unit: "us", Better: "lower", Layer: "wf", Moves: timing + "lib-search"},
		{Name: "wf.validate_us", Unit: "us", Better: "lower", Layer: "wf", Moves: "none"},

		// The four codecs are most of a hit, about twice that absolute
		// saving on cluster-hit (two hops), a small share of svc-miss, and
		// nothing on lib-search.
		{Name: "planio.encode_request_ms", Unit: "ms", Better: "lower", Layer: "planio", Moves: timing + hits + ";" + tput + hits},
		{Name: "planio.decode_request_ms", Unit: "ms", Better: "lower", Layer: "planio", Moves: timing + hits + ";" + tput + hits},
		{Name: "planio.encode_result_ms", Unit: "ms", Better: "lower", Layer: "planio", Moves: timing + hits + ";" + tput + hits},
		{Name: "planio.decode_result_ms", Unit: "ms", Better: "lower", Layer: "planio", Moves: timing + hits + ";" + tput + hits},
		{Name: "planio.request_bytes", Unit: "count", Better: "lower", Layer: "planio", Moves: timing + hits, Exact: true},
		{Name: "planio.result_bytes", Unit: "count", Better: "lower", Layer: "planio", Moves: timing + hits, Exact: true},
		{Name: "planio.decode_request_allocs", Unit: "count", Better: "lower", Layer: "planio", Moves: alloc + service},
		{Name: "planio.decode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "planio", Moves: timing + hits},

		// Get is sub-millisecond (prediction: no visible move); put and
		// bytes written move svc-miss; computes is the validity check.
		{Name: "planstore.get_mem_us", Unit: "us", Better: "lower", Layer: "planstore", Moves: timing + hits},
		{Name: "planstore.get_disk_ms", Unit: "ms", Better: "lower", Layer: "planstore", Moves: "none"},
		{Name: "planstore.put_ms", Unit: "ms", Better: "lower", Layer: "planstore", Moves: timing + "svc-miss"},
		{Name: "planstore.hit_ratio", Unit: "ratio", Better: "higher", Layer: "planstore", Moves: "none", Exact: true},
		{Name: "planstore.computes", Unit: "count", Better: "lower", Layer: "planstore", Moves: "none"},
		{Name: "planstore.puts", Unit: "count", Better: "lower", Layer: "planstore", Moves: "none"},
		{Name: "planstore.bytes_written_per_job", Unit: "count", Better: "lower", Layer: "planstore", Moves: timing + "svc-miss"},
		{Name: "planstore.bytes_read_per_job", Unit: "count", Better: "lower", Layer: "planstore", Moves: "none"},
		{Name: "planstore.claims", Unit: "count", Better: "lower", Layer: "planstore", Moves: "none"},
		{Name: "planstore.claim_waits", Unit: "count", Better: "lower", Layer: "planstore", Moves: "none", Exact: true},
		{Name: "planstore.errors", Unit: "count", Better: "lower", Layer: "planstore", Moves: "none", Exact: true},

		// The journal append fsyncs on the submit path; compactions show in
		// the tail; queue wait exists on svc-miss only (hits bypass the queue
		// on a store-backed server).
		{Name: "service.journal_append_submit_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: timing + service},
		{Name: "service.journal_append_state_us", Unit: "us", Better: "lower", Layer: "service", Moves: timing + service},
		{Name: "service.journal_bytes_per_job", Unit: "count", Better: "lower", Layer: "service", Moves: timing + service},
		{Name: "service.journal_compactions", Unit: "count", Better: "lower", Layer: "service", Moves: "none"},
		{Name: "service.journal_errors", Unit: "count", Better: "lower", Layer: "service", Moves: "none", Exact: true},
		{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: timing + "svc-miss"},
		{Name: "service.queue_submit_us", Unit: "us", Better: "lower", Layer: "service", Moves: "none"},

		// requests_per_job falling from 3 is the signature of a merged
		// submit/result path.
		{Name: "client.submit_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: timing + hits},
		{Name: "client.events_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: timing + service},
		{Name: "client.result_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: timing + hits},
		{Name: "client.requests_per_job", Unit: "count", Better: "lower", Layer: "client", Moves: timing + hits, Exact: true},
		{Name: "client.retries", Unit: "count", Better: "lower", Layer: "client", Moves: "none", Exact: true},
		{Name: "client.resumes", Unit: "count", Better: "lower", Layer: "client", Moves: "none", Exact: true},

		// Moves cluster-hit only; dispatch_overhead_ms is the like-for-like
		// difference to a direct client-to-worker job.
		{Name: "cluster.dispatch_ms", Unit: "ms", Better: "lower", Layer: "cluster", Moves: timing + "cluster-hit;" + tput + "cluster-hit"},
		{Name: "cluster.dispatch_overhead_ms", Unit: "ms", Better: "lower", Layer: "cluster", Moves: timing + "cluster-hit;" + tput + "cluster-hit"},
		{Name: "cluster.dispatches_per_job", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none", Exact: true},
		{Name: "cluster.redispatches", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none", Exact: true},
		{Name: "cluster.failovers", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none", Exact: true},
		{Name: "cluster.worker_computes", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none", Exact: true},
		{Name: "cluster.worker_balance", Unit: "ratio", Better: "lower", Layer: "cluster", Moves: tput + "cluster-hit"},

		{Name: "workloads.build_ms", Unit: "ms", Better: "lower", Layer: "workloads", Moves: "setup_s@" + everywhere},
		{Name: "profile.annotate_ms", Unit: "ms", Better: "lower", Layer: "profile", Moves: "setup_s@" + everywhere},
		{Name: "mrsim.run_input_ms", Unit: "ms", Better: "lower", Layer: "mrsim", Moves: "none"},
		{Name: "mrsim.run_optimized_ms", Unit: "ms", Better: "lower", Layer: "mrsim", Moves: "none"},

		// Neither moves an end-to-end metric. Coverage is the outside-in
		// answer to "where does the time go" and the number in-program
		// spans (ROADMAP item 1) must beat.
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none"},
		{Name: "trace.coverage_ratio", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none"},
	}...)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile reads the p-quantile by nearest rank, rounding the rank up so
// that small samples never understate the tail. It returns 0 for no values.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[min(int(math.Ceil(p*float64(len(s)-1))), len(s)-1)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// geomean returns 0 for no values; every value must be positive.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// spread is (max-min)/median, 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / median(v)
}

// quartileSpread is the distance between the first and the third quartile as
// a share of the median, with the quartiles as Python's
// statistics.quantiles(v, n=4) gives them: the spread BENCHMARK.json's
// contract judges a benchmark by. It is 0 for fewer than two values.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 || median(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(v)
}

// tailQuantile is the highest of p75, p90, p95, p99 that still has at least
// ten samples beyond it (p75 when none has).
func tailQuantile(n int) float64 {
	best := 0.75
	for _, p := range []float64{0.90, 0.95, 0.99} {
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}
