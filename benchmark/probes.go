package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/rrs"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// The per-layer numbers are taken from outside: by timing calls into each
// package's exported functions on the workload's own documents, and by
// reading exported Stats before and after the measured window.

const (
	// docReps is how often each document step is timed per document; with
	// at least four documents a workload every step has ten samples or more.
	docReps = 3
	// callReps is how often a document-independent call is timed.
	callReps = 10
)

// timed runs f and returns its wall time, recording a span when tracing.
func timed(tr *tracer, parent int, request, layer, name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	tr.add(parent, request, layer, name, t0, t1)
	if err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	return t1.Sub(t0), nil
}

// medianOf times f n times and returns the median in nanoseconds.
func medianOf(n int, f func() error) (float64, error) {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		v[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(v), nil
}

// layerMetrics assembles every per-layer metric of the traced run. Metrics
// of a layer the workload does not touch read 0.
func (e *env) layerMetrics(rounds []roundStats, window map[string]float64, tr *tracer, ver *verifier, res *result) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	e.windowMetrics(m, rounds, window, res)
	steps, bodies, err := e.probeDocuments(m, tr)
	if err != nil {
		res.problem("%v", err)
	}
	if err := e.probeCluster(m, steps, bodies, tr); err != nil {
		res.problem("%v", err)
	}
	e.coverage(m, rounds, steps)
	if err := probeSearchLayers(m, e.seed); err != nil {
		res.problem("%v", err)
	}
	m["mrsim.run_input_ms"] = mean(ver.runInputMS)
	m["mrsim.run_optimized_ms"] = mean(ver.runOptimizedMS)
	return m
}

// windowMetrics fills what the load generator, the runtime and the exported
// Stats saw over the measured window. Real-unit mirrors of the end-to-end
// metrics come from the untraced rounds; search progress comes from the
// traced ones, where lib-search has its observer attached.
func (e *env) windowMetrics(m map[string]float64, rounds []roundStats, window map[string]float64, res *result) {
	var jobMS, perS, plainRel, tracedRel []float64
	var submitMS, eventsMS, resultMS, queueMS []float64
	byWorkflow := make([][]float64, len(e.inputs))
	var cpuMS, pauseMS float64
	var mallocs, gcCycles uint64
	var plainJobs, tracedJobs, allJobs, refused int
	var units, subplans int
	var calls, computed, cards uint64
	var verticalMS, horizontalMS, tracedMS float64
	for r, rs := range rounds {
		// Throughput in units of the reference samples taken just before and
		// just after the round, for the traced-against-untraced comparison:
		// with a handful of rounds on each side, one slow phase of the host
		// would otherwise decide it.
		rel := float64(len(rs.results)) / rs.wallS * median(res.Samples["ref_ms"][r*refSamples:(r+2)*refSamples])
		allJobs += len(rs.results)
		for _, jr := range rs.results {
			refused += jr.refused
			if jr.err != nil {
				continue
			}
			submitMS, eventsMS = append(submitMS, jr.submitMS), append(eventsMS, jr.eventsMS)
			resultMS, queueMS = append(resultMS, jr.resultMS), append(queueMS, jr.queueWaitMS)
		}
		if rs.traced {
			tracedRel = append(tracedRel, rel)
			tracedJobs += len(rs.results)
			for _, jr := range rs.results {
				units, subplans = units+jr.units, subplans+jr.subplans
				calls, computed, cards = calls+jr.whatIfCalls, computed+jr.whatIfComputed, cards+jr.flowCards
				verticalMS, horizontalMS, tracedMS = verticalMS+jr.verticalMS, horizontalMS+jr.horizontalMS, tracedMS+jr.ms
			}
			continue
		}
		perS, plainRel = append(perS, float64(len(rs.results))/rs.wallS), append(plainRel, rel)
		plainJobs += len(rs.results)
		cpuMS, pauseMS = cpuMS+rs.cpuMS, pauseMS+rs.gcPauseMS
		mallocs, gcCycles = mallocs+rs.mallocs, gcCycles+rs.gcCycles
		for _, jr := range rs.results {
			if jr.err == nil {
				jobMS = append(jobMS, jr.ms)
				byWorkflow[jr.wf] = append(byWorkflow[jr.wf], jr.ms)
			}
		}
	}
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	m["harness.job_ms_p50"] = median(jobMS)
	m["harness.job_ms_tail"] = quantile(jobMS, tailQuantile(len(jobMS)))
	m["harness.jobs_per_s"] = median(perS)
	m["harness.ref_ms"] = median(res.Samples["ref_ms"])
	m["harness.round_spread"] = spread(res.Samples["job_time_rel"])
	m["harness.attempts"] = float64(res.Attempted)
	m["harness.refused"] = float64(refused)
	if plain := median(plainRel); plain > 0 {
		m["trace.overhead_ratio"] = median(tracedRel) / plain
	}

	m["process.cpu_ms_per_job"] = per(cpuMS, plainJobs)
	m["process.allocs_per_job"] = per(float64(mallocs), plainJobs)
	m["process.gc_cycles_per_job"] = per(float64(gcCycles), plainJobs)
	m["process.gc_pause_ms_per_job"] = per(pauseMS, plainJobs)

	if e.client == nil {
		for i, in := range e.inputs {
			m["session.optimize_ms."+in.abbr] = median(byWorkflow[i])
		}
	}
	m["optimizer.units_per_job"] = per(float64(units), tracedJobs)
	m["optimizer.subplans_per_job"] = per(float64(subplans), tracedJobs)
	m["optimizer.whatif_calls_per_job"] = per(float64(calls), tracedJobs)
	m["optimizer.whatif_computed_per_job"] = per(float64(computed), tracedJobs)
	m["optimizer.flow_cards_per_job"] = per(float64(cards), tracedJobs)
	if tracedMS > 0 {
		m["optimizer.vertical_share"] = verticalMS / tracedMS
		m["optimizer.horizontal_share"] = horizontalMS / tracedMS
	}

	if lookups := window["estcache.hits"] + window["estcache.misses"]; lookups > 0 {
		m["whatif.estcache_hit_ratio"] = window["estcache.hits"] / lookups
	}
	if len(e.nodes) > 0 {
		if st, ok := e.nodes[0].sess.EstimateCacheStats(); ok {
			m["whatif.estcache_entries"] = float64(st.Entries)
		}
	}

	if lookups := window["planstore.hits"] + window["planstore.misses"]; lookups > 0 {
		m["planstore.hit_ratio"] = window["planstore.hits"] / lookups
	}
	m["planstore.computes"] = window["planstore.computes"]
	m["planstore.puts"] = window["planstore.puts"]
	m["planstore.bytes_written_per_job"] = per(window["planstore.bytes_written"], allJobs)
	m["planstore.bytes_read_per_job"] = per(window["planstore.bytes_read"], allJobs)
	m["planstore.claims"] = window["planstore.claims"]
	m["planstore.claim_waits"] = window["planstore.claim_waits"]
	m["planstore.errors"] = window["planstore.errors"]

	m["service.journal_bytes_per_job"] = per(window["journal.bytes"], allJobs)
	m["service.journal_compactions"] = window["journal.compactions"]
	m["service.journal_errors"] = window["journal.errors"]

	if e.client != nil {
		m["service.queue_wait_ms"] = median(queueMS)
		m["client.submit_ms"] = median(submitMS)
		m["client.events_ms"] = median(eventsMS)
		m["client.result_ms"] = median(resultMS)
		m["client.requests_per_job"] = per(window["client.requests"], allJobs)
		m["client.retries"] = window["client.retries"]
		m["client.resumes"] = window["client.resumes"]
	}
	if e.coord != nil {
		m["cluster.dispatches_per_job"] = per(window["cluster.dispatches"], allJobs)
		m["cluster.redispatches"] = window["cluster.redispatches"]
		m["cluster.failovers"] = window["cluster.failovers"]
		m["cluster.worker_computes"] = window["planstore.computes"]
		busiest, total := 0.0, 0.0
		for i := range e.workers() {
			served := window[fmt.Sprintf("planstore.hits.worker%d", i)]
			busiest, total = max(busiest, served), total+served
		}
		if total > 0 {
			m["cluster.worker_balance"] = busiest / total
		}
	}
}

// docSteps holds the median time, in milliseconds, of each step a server or
// client performs on one workflow's documents, by the step's span name.
type docSteps map[string]float64

// Step names of the document probes.
const (
	stepEncodeRequest     = "planio.EncodeRequest"
	stepDecodeRequest     = "planio.DecodeRequest"
	stepFingerprint       = "wf.FingerprintWorkflow"
	stepEncodeResult      = "planio.EncodeResult"
	stepStorePut          = "planstore.Store.Put"
	stepStoreGet          = "planstore.Store.Get"
	stepDecodeResult      = "planio.DecodeResultBound"
	stepJournalSubmit     = "service.Journal.AppendSubmit"
	stepFingerprintResult = "wf.FingerprintWorkflow.result"
	stepTransfer          = "http.transfer"
	stepDispatch          = "cluster.Coordinator.Dispatch"
	stepDirectJob         = "client.direct-worker-job"
)

// meanStep averages one step over the workload's documents.
func meanStep(steps []docSteps, name string) float64 {
	v := make([]float64, len(steps))
	for i, s := range steps {
		v[i] = s[name]
	}
	return mean(v)
}

// probeDocuments replays, as direct calls on each of the workload's own
// request and result documents, the steps a server and client perform on a
// submission: the four planio codecs, the two fingerprints, the store
// write and lookup, and the journal appends. Store and journal are scratch
// instances, so the live servers' state is untouched. Each document's first
// replay is recorded as a `probe` span tree. It returns the steps and the
// encoded request of each document.
func (e *env) probeDocuments(m map[string]float64, tr *tracer) ([]docSteps, [][]byte, error) {
	storeDir := filepath.Join(e.dir, "probe-store")
	store, err := planstore.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = store.Close() }() // scratch store, closed with its error checked before the reopen below
	journal, _, err := service.OpenJournal(filepath.Join(e.dir, "probe-journal"))
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = journal.Close() }() // scratch journal
	wire, err := startLoopback()
	if err != nil {
		return nil, nil, err
	}
	defer wire.close()

	steps := make([]docSteps, len(e.inputs))
	bodies := make([][]byte, len(e.inputs))
	keys := make([]planstore.Key, len(e.inputs))
	var requestBytes, resultBytes, decodeAllocs, stateUS []float64
	for i, in := range e.inputs {
		sample, ok := e.sample[in.abbr]
		if !ok {
			return nil, nil, fmt.Errorf("probe %s: no plan was returned to probe with", in.abbr)
		}
		reg := planio.NewRegistry()
		reg.RegisterWorkflow(in.wl.Workflow)
		plan, err := planio.Decode(sample, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", in.abbr, err)
		}
		req := &planio.Request{Planner: "stubby", Seed: searchSeed(e.seed), Cluster: in.wl.Cluster, Plan: in.wl.Workflow}
		keys[i] = planstore.Key{Plan: wf.FingerprintWorkflow(in.wl.Workflow), Cluster: 1, Planner: "probe", Seed: int64(i)}
		var body, doc []byte
		var fp wf.Fingerprint
		var mem0, mem1 runtime.MemStats
		samples := map[string][]float64{}
		for rep := 0; rep < docReps; rep++ {
			t := tr
			if rep > 0 {
				t = nil
			}
			id := "probe/" + e.def.name + "/" + in.abbr
			jobID := fmt.Sprintf("probe-%d-%d", i, rep)
			key := keys[i]
			key.Seed += int64(rep) * 1000 // a fresh address per repetition, so every Put appends
			root := t.open(0, id, "harness", "probe", time.Now())
			for _, step := range []struct {
				layer, name string
				f           func() error
			}{
				{"planio", stepEncodeRequest, func() (err error) { body, err = planio.EncodeRequest(req); return }},
				{"planio", stepDecodeRequest, func() error {
					runtime.ReadMemStats(&mem0)
					_, err := planio.DecodeRequest(body)
					runtime.ReadMemStats(&mem1)
					return err
				}},
				{"wf", stepFingerprint, func() error { wf.FingerprintWorkflow(in.wl.Workflow); return nil }},
				{"wf", stepFingerprintResult, func() error { fp = wf.FingerprintWorkflow(plan); return nil }},
				{"planio", stepEncodeResult, func() (err error) {
					doc, err = planio.EncodeResult(&planio.Result{Plan: plan, EstimatedCost: 1, Fingerprint: fp.String()})
					return
				}},
				{"planstore", stepStorePut, func() error { return store.Put(key, doc) }},
				{"planstore", stepStoreGet, func() error {
					if _, ok, err := store.Get(key); err != nil || !ok {
						return fmt.Errorf("stored document not found: %v", err)
					}
					return nil
				}},
				{"planio", stepDecodeResult, func() error { _, err := planio.DecodeResultBound(doc, reg); return err }},
				{"service", stepJournalSubmit, func() error { return journal.AppendSubmit(jobID, body, 0) }},
				{"client", stepTransfer, func() error { return wire.transfer(body, doc) }},
			} {
				d, err := timed(t, root, id, step.layer, step.name, step.f)
				if err != nil {
					return nil, nil, err
				}
				samples[step.name] = append(samples[step.name], ms(d))
			}
			t.close(root, time.Now())
			t0 := time.Now()
			if err := journal.AppendState(jobID, service.Running); err != nil {
				return nil, nil, err
			}
			stateUS = append(stateUS, us(time.Since(t0)))
			decodeAllocs = append(decodeAllocs, float64(mem1.Mallocs-mem0.Mallocs))
		}
		steps[i] = docSteps{}
		for name, v := range samples {
			steps[i][name] = median(v)
		}
		bodies[i] = body
		requestBytes, resultBytes = append(requestBytes, float64(len(body))), append(resultBytes, float64(len(doc)))
	}

	// Reopen the scratch store: the memory front is cold, so Get reads disk.
	if err := store.Close(); err != nil {
		return nil, nil, err
	}
	cold, err := planstore.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = cold.Close() }() // read-only use
	var diskMS []float64
	for _, key := range keys {
		t0 := time.Now()
		if _, ok, err := cold.Get(key); err != nil || !ok {
			return nil, nil, fmt.Errorf("probe planstore.Get after reopen: not found: %v", err)
		}
		diskMS = append(diskMS, ms(time.Since(t0)))
	}

	m["planio.encode_request_ms"] = meanStep(steps, stepEncodeRequest)
	m["planio.decode_request_ms"] = meanStep(steps, stepDecodeRequest)
	m["planio.encode_result_ms"] = meanStep(steps, stepEncodeResult)
	m["planio.decode_result_ms"] = meanStep(steps, stepDecodeResult)
	m["planio.request_bytes"] = mean(requestBytes)
	m["planio.result_bytes"] = mean(resultBytes)
	m["planio.decode_request_allocs"] = median(decodeAllocs)
	if d := m["planio.decode_request_ms"]; d > 0 {
		m["planio.decode_mb_per_s"] = mean(requestBytes) / 1e6 / (d / 1000)
	}
	m["planstore.get_mem_us"] = meanStep(steps, stepStoreGet) * 1000
	m["planstore.get_disk_ms"] = median(diskMS)
	m["planstore.put_ms"] = meanStep(steps, stepStorePut)
	m["service.journal_append_submit_ms"] = meanStep(steps, stepJournalSubmit)
	m["service.journal_append_state_us"] = median(stateUS)

	// A no-op job through a fresh queue: admission, hand-off to a worker,
	// completion.
	q := service.NewQueue(1, 8)
	queueNS, err := medianOf(callReps, func() error {
		j := service.NewJob("probe", func(context.Context) (any, error) { return nil, nil })
		if err := q.Submit(j); err != nil {
			return err
		}
		<-j.Done()
		return nil
	})
	if err == nil {
		err = q.Drain(context.Background())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("probe service.Queue: %w", err)
	}
	m["service.queue_submit_us"] = queueNS / 1e3
	return steps, bodies, nil
}

// loopback is a scratch HTTP server that swallows a posted body and serves a
// fixed document: the socket cost of a submission's two large transfers
// (request up, result down) with no codec behind them.
type loopback struct {
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	doc    atomic.Pointer[[]byte]
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{served: make(chan error, 1), url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}}}
	l.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			_, _ = io.Copy(io.Discard, r.Body) // a short read shows as the client's error
			w.WriteHeader(http.StatusAccepted)
			return
		}
		_, _ = w.Write(*l.doc.Load()) // a short write shows as the client's length check
	})}
	go func() { l.served <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *loopback) transfer(body, doc []byte) error {
	l.doc.Store(&doc)
	resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the reply to a POST is empty
	_ = resp.Body.Close()
	if resp, err = l.client.Get(l.url); err != nil {
		return err
	}
	defer resp.Body.Close()
	if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != int64(len(doc)) {
		return fmt.Errorf("read %d of %d bytes: %v", n, len(doc), err)
	}
	return nil
}

func (l *loopback) close() {
	_ = l.srv.Close() // scratch server with no request in flight
	<-l.served
	l.client.CloseIdleConnections()
}

// probeCluster times Coordinator.Dispatch called directly against the live
// workers, and the same document as a direct client-to-worker job. The
// dispatch overhead is the like-for-like difference: Dispatch takes and
// returns encoded documents, so the client's own encode and decode are
// taken out of the direct job first.
func (e *env) probeCluster(m map[string]float64, steps []docSteps, bodies [][]byte, tr *tracer) error {
	if e.coord == nil || steps == nil {
		return nil
	}
	ctx := context.Background()
	direct, err := e.newClient(e.workers()[0].url)
	if err != nil {
		return err
	}
	var overhead []float64
	for i, s := range steps {
		var dispatchMS, directMS []float64
		for rep := 0; rep < docReps; rep++ {
			t := tr
			if rep > 0 {
				t = nil
			}
			id := "probe/" + e.def.name + "/" + e.inputs[i].abbr
			d, err := timed(t, 0, id, "cluster", "probe", func() error { _, err := e.coord.Dispatch(ctx, bodies[i]); return err })
			if err != nil {
				return err
			}
			dispatchMS = append(dispatchMS, ms(d))
			jr := e.submitRemote(ctx, direct, job{wf: i, seed: searchSeed(e.seed)}, nil)
			if jr.err != nil {
				return fmt.Errorf("probe direct worker job: %w", jr.err)
			}
			directMS = append(directMS, jr.ms)
		}
		s[stepDispatch], s[stepDirectJob] = median(dispatchMS), median(directMS)
		overhead = append(overhead, s[stepDispatch]-(s[stepDirectJob]-s[stepEncodeRequest]-s[stepDecodeResult]))
	}
	m["cluster.dispatch_ms"] = meanStep(steps, stepDispatch)
	m["cluster.dispatch_overhead_ms"] = mean(overhead)
	return nil
}

// coverage is the share of a job's time that the probed steps on its path
// explain: the sum over the workload's workflows of the steps' medians,
// over the sum of the workflows' median job times. A store-backed server
// decodes the request, fingerprints it for the journal and for the store
// key, looks the plan up, decodes and binds it, journals the submission,
// and on the result request fingerprints and encodes the plan; the client
// encodes the request and decodes the result, and both documents cross a
// loopback socket. A coordinator instead decodes,
// re-encodes and dispatches, then decodes and re-encodes the worker's
// answer. On svc-miss the store write joins the path, but the search itself
// is not replayed, so coverage there is the service share of a job. On
// lib-search the job is one call into the session layer.
func (e *env) coverage(m map[string]float64, rounds []roundStats, steps []docSteps) {
	if e.client == nil {
		m["trace.coverage_ratio"] = 1
		return
	}
	if steps == nil {
		return
	}
	byWorkflow := make([][]float64, len(e.inputs))
	for _, rs := range rounds {
		for _, jr := range rs.results {
			if rs.traced && jr.err == nil {
				byWorkflow[jr.wf] = append(byWorkflow[jr.wf], jr.ms)
			}
		}
	}
	explained, total := 0.0, 0.0
	for i, s := range steps {
		explained += s[stepEncodeRequest] + s[stepDecodeRequest] + s[stepEncodeResult] + s[stepFingerprintResult] + s[stepDecodeResult] + s[stepTransfer]
		switch e.def.name {
		case "cluster-hit":
			explained += s[stepEncodeRequest] + s[stepDispatch] + s[stepDecodeResult]
		case "svc-miss":
			explained += 2*s[stepFingerprint] + s[stepJournalSubmit] + s[stepStorePut]
		default:
			explained += 2*s[stepFingerprint] + s[stepStoreGet] + s[stepDecodeResult] + s[stepJournalSubmit]
		}
		total += median(byWorkflow[i])
	}
	if total > 0 {
		m["trace.coverage_ratio"] = explained / total
	}
}

// probeSearchLayers times the search-side layers on all eight paper
// workflows, whatever the workload: building and profiling them, what-if
// estimation, RRS bookkeeping, one legal application of each structural
// transformation, and the wf helpers.
func probeSearchLayers(m map[string]float64, seed int64) error {
	ins, err := buildInputs(seed, allAbbrs)
	if err != nil {
		return err
	}
	var fullUS, prepareUS, changedUS, fpUS, cloneUS, validateUS []float64
	var fullNS, cards float64
	for _, in := range ins {
		w := in.wl.Workflow
		m["workloads.build_ms"] += in.buildMS
		m["profile.annotate_ms"] += in.annotateMS

		est := whatif.New(in.wl.Cluster)
		before := est.Counts().FlowCards
		ns, err := medianOf(callReps, func() error { _, err := est.Estimate(w); return err })
		if err != nil {
			return fmt.Errorf("probe whatif.Estimate %s: %w", in.abbr, err)
		}
		fullUS = append(fullUS, ns/1e3)
		fullNS += ns * callReps
		cards += float64(est.Counts().FlowCards - before)

		scratch := w.Clone()
		var ids []string
		for _, j := range scratch.Jobs {
			ids = append(ids, j.ID)
		}
		var prep *whatif.Prepared
		ns, err = medianOf(callReps, func() (err error) { prep, err = est.Prepare(scratch, ids); return })
		if err != nil {
			return fmt.Errorf("probe whatif.Prepare %s: %w", in.abbr, err)
		}
		prepareUS = append(prepareUS, ns/1e3)
		ns, err = medianOf(callReps, func() error { _, err := prep.EstimateChanged(); return err })
		if err != nil {
			return fmt.Errorf("probe whatif.EstimateChanged %s: %w", in.abbr, err)
		}
		changedUS = append(changedUS, ns/1e3)

		ns, _ = medianOf(callReps, func() error { wf.FingerprintWorkflow(w); return nil })
		fpUS = append(fpUS, ns/1e3)
		ns, _ = medianOf(callReps, func() error { w.Clone(); return nil })
		cloneUS = append(cloneUS, ns/1e3)
		ns, err = medianOf(callReps, w.Validate)
		if err != nil {
			return fmt.Errorf("probe wf.Validate %s: %w", in.abbr, err)
		}
		validateUS = append(validateUS, ns/1e3)
	}
	m["whatif.estimate_full_us"] = mean(fullUS)
	m["whatif.prepare_us"] = mean(prepareUS)
	m["whatif.estimate_changed_us"] = mean(changedUS)
	if cards > 0 {
		m["whatif.us_per_flow_card"] = fullNS / 1e3 / cards
	}
	m["wf.fingerprint_us"] = mean(fpUS)
	m["wf.clone_us"] = mean(cloneUS)
	m["wf.validate_us"] = mean(validateUS)

	// RRS bookkeeping: a constant-time objective over as many dimensions as
	// a two-job unit's configuration space has.
	params := make([]rrs.Param, 12)
	initial := make(rrs.Point, len(params))
	for i := range params {
		params[i] = rrs.Param{Name: fmt.Sprintf("p%d", i), Min: 0, Max: 100, Integer: i%2 == 0}
		initial[i] = 50
	}
	evals := 0
	ns, err := medianOf(callReps, func() error {
		r, err := rrs.Minimize(params, func(p rrs.Point) float64 { return p[0] + p[1] }, initial,
			rrs.Options{MaxEvals: 350, Seed: seed})
		evals = r.Evals
		return err
	})
	if err != nil {
		return fmt.Errorf("probe rrs.Minimize: %w", err)
	}
	if evals > 0 {
		m["rrs.overhead_us_per_eval"] = ns / 1e3 / float64(evals)
	}
	ns, err = medianOf(callReps, func() error {
		_, err := stubby.NewSession(stubby.WithCluster(ins[0].wl.Cluster), stubby.WithSeed(seed))
		return err
	})
	if err != nil {
		return fmt.Errorf("probe NewSession: %w", err)
	}
	m["session.new_us"] = ns / 1e3
	return probeTransformations(m, ins)
}

// probeTransformations times the first legal application of each structural
// transformation found on the unoptimized inputs, in workflow order. A
// transformation with no legal application there reads 0.
func probeTransformations(m map[string]float64, ins []*input) error {
	type application struct {
		metric string
		f      func() error
	}
	var found []application
	have := map[string]bool{}
	add := func(metric string, f func() error) {
		if !have[metric] {
			have[metric] = true
			found = append(found, application{metric, f})
		}
	}
	for _, in := range ins {
		w := in.wl.Workflow
		slots := in.wl.Cluster.TotalReduceSlots()
		for _, a := range w.Jobs {
			a := a
			if trans.CanIntraVertical(w, a.ID) == nil {
				add("trans.intra_vertical_us", func() error { _, err := trans.IntraVertical(w, a.ID); return err })
			}
			for _, g := range a.ReduceGroups {
				tag := g.Tag
				if len(trans.EnumeratePartitionSpecs(w, a.ID, tag, slots)) > 0 {
					add("trans.enumerate_partition_us", func() error {
						trans.EnumeratePartitionSpecs(w, a.ID, tag, slots)
						return nil
					})
				}
			}
			for _, b := range w.Jobs {
				b := b
				if a.ID == b.ID {
					continue
				}
				if trans.CanInterVertical(w, a.ID, b.ID) == nil {
					add("trans.inter_vertical_us", func() error { _, err := trans.InterVertical(w, a.ID, b.ID); return err })
				}
				if pair := []string{a.ID, b.ID}; trans.CanHorizontal(w, pair, false) == nil {
					add("trans.horizontal_us", func() error { _, err := trans.Horizontal(w, pair, false); return err })
				}
			}
		}
	}
	for _, app := range found {
		ns, err := medianOf(callReps, app.f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", app.metric, err)
		}
		m[app.metric] = ns / 1e3
	}
	return nil
}
