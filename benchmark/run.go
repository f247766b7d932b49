package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// config is one run's arguments.
type config struct {
	seed    int64
	seconds float64
	// traced selects the per-layer run: set-up once, untraced and traced
	// rounds alternating, then the direct layer probes. Otherwise the run
	// is the end-to-end one: set-up several times, untraced rounds only.
	traced bool
	dir    string
}

// roundStats is one measured round.
type roundStats struct {
	traced  bool
	results []jobResult
	wallS   float64
	// Process-wide deltas over the round.
	allocBytes, mallocs, gcCycles uint64
	gcPauseMS, cpuMS              float64
}

// result is what one run of one workload reports; -out writes it as JSON
// and -compare reads it back.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"nproc"`

	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"` // violated validity checks, failed verifications, job errors
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`

	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	// Samples holds the per-round (per-set-up for setup_s) values behind the
	// timing metrics; -compare reads their spread.
	Samples map[string][]float64 `json:"samples"`
	// JobLayerMS and ProbeLayerMS are span self time summed by layer over
	// the traced jobs and over the direct probes.
	JobLayerMS   map[string]float64 `json:"job_layer_ms,omitempty"`
	ProbeLayerMS map[string]float64 `json:"probe_layer_ms,omitempty"`

	spans []span
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload sets the workload up, measures it for cfg.seconds, verifies
// every returned plan and checks that the workload exercised what it claims.
func runWorkload(def *workloadDef, cfg config) (*result, error) {
	res := &result{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Samples: map[string][]float64{},
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var e *env
	// A traced run sets up once. An end-to-end run reports the median of at
	// least three set-ups, and of up to seven when they are cheap (until
	// three seconds are spent), because a sub-second set-up is noisy.
	for i, spent := 0, 0.0; i == 0 || (!cfg.traced && (i < 3 || spent < 3) && i < 7); i++ {
		if e != nil {
			e.close()
		}
		dir, err := os.MkdirTemp(cfg.dir, def.name+"-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if e, err = setUp(def, cfg.seed, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		took := time.Since(t0).Seconds()
		res.Samples["setup_s"] = append(res.Samples["setup_s"], took)
		spent += took
	}
	defer e.close()

	var tr *tracer
	var peaks *peakSampler
	if cfg.traced {
		tr = newTracer()
		peaks = startPeakSampler()
	}
	ver := newVerifier(e.inputs)
	before := e.counters()
	rounds := e.measure(cfg, tr, ver, res)
	window := delta(before, e.counters())
	for _, msg := range e.validate(rounds, window) {
		res.problem("invalid: %s", msg)
	}

	res.EndToEnd = endToEndMetrics(rounds, res)
	if cfg.traced {
		heapMB, goroutines := peaks.stop()
		res.PerLayer = e.layerMetrics(rounds, window, tr, ver, res)
		res.PerLayer["process.heap_peak_mb"] = heapMB
		res.PerLayer["process.goroutines_peak"] = goroutines
		res.spans = tr.snapshot()
		res.JobLayerMS = layerSelfMS(res.spans, "job")
		res.ProbeLayerMS = layerSelfMS(res.spans, "probe")
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// refSamples is how many reference-kernel samples are taken before the first
// round and after every round.
const refSamples = 3

// measure runs rounds until cfg.seconds of round time are used up, sampling
// the reference kernel before the first round and after every round.
// Returned plans are exported and verified after each round, outside its
// window, and then dropped so that retained documents do not change the
// collector's pacing.
func (e *env) measure(cfg config, tr *tracer, ver *verifier, res *result) []roundStats {
	ctx := context.Background()
	var rounds []roundStats
	sampleRef := func() {
		for i := 0; i < refSamples; i++ {
			res.Samples["ref_ms"] = append(res.Samples["ref_ms"], refKernel())
		}
	}
	sampleRef()
	for elapsed := 0.0; elapsed < cfg.seconds || (cfg.traced && len(rounds) < 2); {
		r := len(rounds)
		rs := roundStats{traced: cfg.traced && r%2 == 1}
		roundTracer := tr
		if !rs.traced {
			roundTracer = nil
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuTime(), time.Now()
		rs.results = runJobs(ctx, e, e.jobs(r), roundTracer)
		rs.wallS = time.Since(t0).Seconds()
		rs.cpuMS = ms(cpuTime() - cpu0)
		runtime.ReadMemStats(&m1)
		rs.allocBytes, rs.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		rs.gcCycles, rs.gcPauseMS = uint64(m1.NumGC-m0.NumGC), float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6
		sampleRef()
		elapsed += rs.wallS

		export(rs.results)
		for i := range rs.results {
			jr := &rs.results[i]
			res.Attempted += 1 + jr.refused
			res.Failed += jr.refused
			if jr.err == nil {
				jr.err = e.verify(ver, jr)
			}
			if jr.err != nil {
				res.Failed++
				res.problem("round %d: %s seed %d: %v", r, e.inputs[jr.wf].abbr, jr.seed, jr.err)
			} else if _, ok := e.sample[e.inputs[jr.wf].abbr]; !ok {
				e.sample[e.inputs[jr.wf].abbr] = jr.plan
			}
			jr.plan = nil
		}
		rounds = append(rounds, rs)
	}
	return rounds
}

// verify checks one returned plan. Where set-up already computed a plan for
// the same workflow and seed (every job of the hit workloads), the plan must
// also be byte-identical to that one.
func (e *env) verify(ver *verifier, jr *jobResult) error {
	in := e.inputs[jr.wf]
	if cold, ok := e.cold[jr.job]; ok && !bytes.Equal(cold, jr.plan) {
		return fmt.Errorf("returned plan differs from the one computed cold for the same workflow and seed")
	}
	var err error
	jr.digest = digest(in, jr.plan)
	jr.speedup, err = ver.check(in, jr.digest, jr.plan)
	return err
}

// validate asserts from exported stats that the workload exercised what it
// claims over the measured window.
func (e *env) validate(rounds []roundStats, window map[string]float64) []string {
	jobs := 0.0
	flowCards := uint64(0)
	for _, rs := range rounds {
		jobs += float64(len(rs.results))
		for _, jr := range rs.results {
			flowCards += jr.flowCards
		}
	}
	var bad []string
	expect := func(name string, want float64) {
		if got := window[name]; got != want {
			bad = append(bad, fmt.Sprintf("%s = %g, want %g", name, got, want))
		}
	}
	if (flowCards > 0) != e.def.searches {
		bad = append(bad, fmt.Sprintf("%d flow cards computed in the window", flowCards))
	}
	switch e.def.name {
	case "svc-miss":
		expect("planstore.computes", jobs)
		expect("planstore.puts", jobs)
		expect("planstore.hits", 0)
	case "svc-hit":
		expect("planstore.computes", 0)
		expect("planstore.mem_hits", jobs)
	case "cluster-hit":
		expect("planstore.computes", 0)
		expect("cluster.dispatches", jobs)
		expect("cluster.failovers", 0)
		expect("cluster.redispatches", 0)
		for i := range e.workers() {
			if window[fmt.Sprintf("planstore.hits.worker%d", i)] == 0 {
				bad = append(bad, fmt.Sprintf("worker %d served no job", i))
			}
		}
	}
	return bad
}

// counters snapshots every exported Stats the workload's servers offer.
func (e *env) counters() map[string]float64 {
	c := map[string]float64{}
	for i, n := range e.nodes {
		if st, ok := n.sess.PlanStoreStats(); ok {
			c["planstore.hits"] += float64(st.Hits)
			c["planstore.mem_hits"] += float64(st.MemHits)
			c["planstore.misses"] += float64(st.Misses)
			c["planstore.computes"] += float64(st.Computes)
			c["planstore.puts"] += float64(st.Puts)
			c["planstore.bytes_written"] += float64(st.BytesWritten)
			c["planstore.bytes_read"] += float64(st.BytesRead)
			c["planstore.claims"] += float64(st.Claims)
			c["planstore.claim_waits"] += float64(st.ClaimWaits)
			c["planstore.errors"] += float64(st.Errors)
			if e.coord != nil {
				c[fmt.Sprintf("planstore.hits.worker%d", i-1)] = float64(st.Hits)
			}
		}
		if st, ok := n.srv.JournalStats(); ok {
			c["journal.bytes"] += float64(st.BytesWritten)
			c["journal.compactions"] += float64(st.Compactions)
			c["journal.errors"] += float64(st.Errors)
		}
	}
	if len(e.nodes) > 0 {
		if st, ok := e.nodes[0].srv.ClusterStats(); ok {
			c["cluster.dispatches"] = float64(st.Dispatches)
			c["cluster.redispatches"] = float64(st.Redispatches)
			c["cluster.failovers"] = float64(st.Failovers)
		}
		if st, ok := e.nodes[0].sess.EstimateCacheStats(); ok {
			c["estcache.hits"] = float64(st.Hits)
			c["estcache.misses"] = float64(st.Misses)
		}
	}
	if e.client != nil {
		m := e.client.Metrics()
		c["client.requests"] = float64(m.Requests)
		c["client.retries"] = float64(m.Retries)
		c["client.resumes"] = float64(m.Resumes)
	}
	return c
}

func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// endToEndMetrics computes the end-to-end metrics from the untraced rounds.
// Timings are divided by the run's median reference-kernel sample.
func endToEndMetrics(rounds []roundStats, res *result) map[string]float64 {
	ref := median(res.Samples["ref_ms"])
	var jobMS [][]float64 // per workflow
	var tputRel, jobRel []float64
	var allocBytes uint64
	jobs, wallS := 0, 0.0
	for _, rs := range rounds {
		if rs.traced {
			continue
		}
		var roundMS [][]float64
		for _, jr := range rs.results {
			if jr.err != nil {
				continue
			}
			for len(jobMS) <= jr.wf {
				jobMS = append(jobMS, nil)
			}
			for len(roundMS) <= jr.wf {
				roundMS = append(roundMS, nil)
			}
			jobMS[jr.wf] = append(jobMS[jr.wf], jr.ms)
			roundMS[jr.wf] = append(roundMS[jr.wf], jr.ms)
		}
		jobRel = append(jobRel, geomeanOfMedians(roundMS)/ref)
		tputRel = append(tputRel, float64(len(rs.results))/rs.wallS*ref/1000)
		allocBytes += rs.allocBytes
		jobs += len(rs.results)
		wallS += rs.wallS
	}
	res.Samples["job_time_rel"], res.Samples["throughput_rel"] = jobRel, tputRel

	// plan_speedup is taken over the first round's distinct plans: every
	// run of a seed has that round, however many more the host manages.
	var speedups []float64
	if len(rounds) > 0 {
		seen := map[[sha256.Size]byte]bool{}
		for _, jr := range rounds[0].results {
			if jr.err == nil && !seen[jr.digest] {
				seen[jr.digest] = true
				speedups = append(speedups, jr.speedup)
			}
		}
	}
	out := map[string]float64{
		"setup_s": median(res.Samples["setup_s"]),
		// The per-workflow median job time over the whole run, then the
		// geometric mean over workflows, so that each workflow weighs the
		// same; a pooled median of 0.2 s and 2 s jobs would fall in the gap
		// between the modes.
		"job_time_rel": geomeanOfMedians(jobMS) / ref,
		"plan_speedup": geomean(speedups),
	}
	if jobs > 0 {
		// Jobs over round time: mean-based, so dominated by the heavy jobs,
		// and on two-submitter workloads it also sees queueing between the
		// submitters.
		out["throughput_rel"] = float64(jobs) / wallS * ref / 1000
		out["alloc_mb_per_job"] = float64(allocBytes) / float64(jobs) / 1e6
	}
	return out
}

func geomeanOfMedians(byWorkflow [][]float64) float64 {
	var meds []float64
	for _, v := range byWorkflow {
		if len(v) > 0 {
			meds = append(meds, median(v))
		}
	}
	return geomean(meds)
}

// peakSampler samples heap in use and the goroutine count every 100 ms
// during the traced run.
type peakSampler struct {
	stopc            chan struct{}
	done             sync.WaitGroup
	heapMB, routines float64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			p.heapMB = max(p.heapMB, float64(m.HeapInuse)/1e6)
			p.routines = max(p.routines, float64(runtime.NumGoroutine()))
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *peakSampler) stop() (heapMB, goroutines float64) {
	close(p.stopc)
	p.done.Wait()
	return p.heapMB, p.routines
}

// scratchDir is where a run keeps stores and journals when -dir is not
// given: .bench_build beside BENCHMARK.json when the benchmark runs from its
// checkout (go run -C benchmark), the system's temporary directory otherwise.
func scratchDir() string {
	if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
		return filepath.Join("..", ".bench_build", "scratch")
	}
	return filepath.Join(os.TempDir(), "stubby-benchmark")
}
