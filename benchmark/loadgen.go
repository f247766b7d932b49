package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/stubby-mr/stubby"
)

// jobResult is what the load generator saw of one job: one
// Session.Optimize call on lib-search, or Client.Submit start until the
// decoded result is in hand on the service workloads.
type jobResult struct {
	job
	err     error
	ms      float64 // job time
	refused int     // 429s before the submission was admitted
	// returned is the plan as it came back; export replaces it with its
	// canonical bytes after the round, outside the measured window.
	returned *stubby.Workflow
	plan     []byte
	// digest and speedup are verification's: the plan's identity and its
	// simulated makespan(input plan) / makespan(returned plan).
	digest  [sha256.Size]byte
	speedup float64
	// What the public result and progress channel report about the search.
	whatIfCalls, whatIfComputed, flowCards uint64
	units, subplans                        int
	verticalMS, horizontalMS               float64 // first unit of the phase until the next phase or the end
	// Service workloads only: the three client calls, and submit
	// acknowledged until the Running transition arrived on the stream.
	submitMS, eventsMS, resultMS, queueWaitMS float64
}

// runJobs issues the jobs through the workload's closed-loop submitters and
// returns their results in job order.
func runJobs(ctx context.Context, e *env, jobs []job, tr *tracer) []jobResult {
	results := make([]jobResult, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < e.def.submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if e.client == nil {
					results[i] = e.optimizeLocal(ctx, jobs[i], tr)
				} else {
					results[i] = e.submitRemote(ctx, e.client, jobs[i], tr)
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// phaseClock turns UnitStarted notifications into unit counts, phase
// durations and optimizer.unit spans.
type phaseClock struct {
	stubby.NopObserver
	mu       sync.Mutex
	units    int
	subplans int
	marks    []phaseMark
}

type phaseMark struct {
	phase string
	at    time.Time
}

func (p *phaseClock) unitStarted(phase string) {
	p.mu.Lock()
	p.units++
	p.marks = append(p.marks, phaseMark{phase, time.Now()})
	p.mu.Unlock()
}

func (p *phaseClock) subplanEnumerated() {
	p.mu.Lock()
	p.subplans++
	p.mu.Unlock()
}

// UnitStarted and SubplanEnumerated implement stubby.Observer for the
// library workload; the service workloads feed the same clock from events.
func (p *phaseClock) UnitStarted(_, phase string, _ int, _ []string) { p.unitStarted(phase) }
func (p *phaseClock) SubplanEnumerated(string, int, string, float64) { p.subplanEnumerated() }

// finish fills the result's search-progress fields and, when tracing,
// records one optimizer.unit span per unit under parent.
func (p *phaseClock) finish(r *jobResult, tr *tracer, parent int, request string, end time.Time) {
	r.units, r.subplans = p.units, p.subplans
	for i, m := range p.marks {
		until := end
		if i+1 < len(p.marks) {
			until = p.marks[i+1].at
		}
		switch m.phase {
		case "vertical":
			r.verticalMS += ms(until.Sub(m.at))
		case "horizontal":
			r.horizontalMS += ms(until.Sub(m.at))
		}
		tr.add(parent, request, "optimizer", "optimizer.unit."+m.phase, m.at, until)
	}
}

func requestID(e *env, j job) string {
	return fmt.Sprintf("%s/%s/%d", e.def.name, e.inputs[j.wf].abbr, j.seed)
}

// optimizeLocal is a lib-search job: a fresh default session (cluster and
// seed only) and one Optimize call. The observer is attached only on traced
// rounds, so untraced rounds run exactly what a plain library caller runs.
func (e *env) optimizeLocal(ctx context.Context, j job, tr *tracer) jobResult {
	in, r := e.inputs[j.wf], jobResult{job: j}
	clock := &phaseClock{}
	opts := []stubby.SessionOption{stubby.WithCluster(in.wl.Cluster), stubby.WithSeed(j.seed)}
	if tr != nil {
		opts = append(opts, stubby.WithObserver(clock))
	}
	start := time.Now()
	sess, err := stubby.NewSession(opts...)
	if err != nil {
		r.err = err
		return r
	}
	t1 := time.Now()
	res, err := sess.Optimize(ctx, in.wl.Workflow)
	end := time.Now()
	r.ms = ms(end.Sub(start))
	if err != nil {
		r.err = err
		return r
	}
	id := requestID(e, j)
	root := tr.add(0, id, "harness", "job", start, end)
	opt := tr.add(root, id, "session", "session.optimize", t1, end)
	clock.finish(&r, tr, opt, id, end)
	r.whatIfCalls, r.whatIfComputed, r.flowCards = res.WhatIfCalls, res.WhatIfComputed, res.FlowCards
	r.returned = res.Plan
	return r
}

// export renders the returned plans as canonical planio documents: the
// identity under which plans are deduplicated, compared and verified.
func export(results []jobResult) {
	for i := range results {
		if r := &results[i]; r.err == nil {
			r.plan, r.err = exportPlan(r.returned)
			r.returned = nil
		}
	}
}

// submitRemote is a service job: Submit, follow the event stream to the
// terminal state, fetch the result — the calls RemoteJob.Wait makes, spelled
// out so each can be timed. A refused submission (429) is retried after
// 2 ms and counted.
func (e *env) submitRemote(ctx context.Context, c *stubby.Client, j job, tr *tracer) jobResult {
	in, r := e.inputs[j.wf], jobResult{job: j}
	req := stubby.OptimizeRequest{Workflow: in.wl.Workflow, Cluster: in.wl.Cluster, Seed: j.seed}
	start := time.Now()
	var rj *stubby.RemoteJob
	for {
		var err error
		if rj, err = c.Submit(ctx, req); err == nil {
			break
		}
		if !errors.Is(err, stubby.ErrKindOverloaded) {
			r.err = err
			return r
		}
		r.refused++
		time.Sleep(2 * time.Millisecond)
	}
	acked := time.Now()
	events, err := rj.Events(ctx)
	if err != nil {
		r.err = err
		return r
	}
	clock := &phaseClock{}
	var terminal *stubby.StateChangedEvent
	for ev := range events { // the server ends the stream after the terminal transition
		switch ev := ev.(type) {
		case stubby.UnitStartedEvent:
			clock.unitStarted(ev.Phase)
		case stubby.SubplanEnumeratedEvent:
			clock.subplanEnumerated()
		case stubby.StateChangedEvent:
			if ev.State == stubby.StateRunning {
				r.queueWaitMS = ms(time.Since(acked))
			}
			if ev.State.Terminal() {
				ev := ev
				terminal = &ev
			}
		}
	}
	streamed := time.Now()
	switch {
	case terminal == nil:
		r.err = errors.New("event stream ended before the job finished")
	case terminal.State != stubby.StateDone:
		r.err = fmt.Errorf("job ended %s: %w", terminal.State, terminal.Err)
	}
	if r.err != nil {
		return r
	}
	res, err := rj.Result(ctx)
	end := time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.ms = ms(end.Sub(start))
	r.submitMS, r.eventsMS, r.resultMS = ms(acked.Sub(start)), ms(streamed.Sub(acked)), ms(end.Sub(streamed))
	id := requestID(e, j)
	root := tr.add(0, id, "harness", "job", start, end)
	tr.add(root, id, "client", "client.submit", start, acked)
	evs := tr.add(root, id, "client", "client.events", acked, streamed)
	tr.add(root, id, "client", "client.result", streamed, end)
	clock.finish(&r, tr, evs, id, streamed)
	r.whatIfCalls, r.whatIfComputed, r.flowCards = res.WhatIfCalls, res.WhatIfComputed, res.FlowCards
	r.returned = res.Plan
	return r
}
