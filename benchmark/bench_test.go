package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// smallRun is a traced run of one workload cut down to two workflows and
// two short rounds (one untraced, one traced).
func smallRun(t *testing.T, name, dir string) *result {
	t.Helper()
	def := *findWorkload(name)
	def.abbrs = []string{"IR", "PJ"}
	def.roundJobs = 4
	res, err := runWorkload(&def, config{seed: 3, seconds: 0.001, traced: true, dir: dir})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: not correct: failed %d, %v", name, res.Failed, res.Problems)
	}
	return res
}

// TestRunsRepeatAndCleanUp runs every workload small, two of them twice,
// and checks that the exact metrics repeat, that every declared metric is
// reported, and that nothing is left running or on disk.
func TestRunsRepeatAndCleanUp(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	dir := filepath.Join(t.TempDir(), "scratch")
	for _, def := range workloadDefs {
		first := smallRun(t, def.name, dir)
		for _, d := range endToEnd {
			if v, ok := first.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", def.name, d.Name, v)
			}
		}
		if len(first.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", def.name, len(first.PerLayer), len(perLayer))
		}
		for _, d := range perLayer {
			if _, ok := first.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", def.name, d.Name)
			}
		}
		if l := first.PerLayer; def.name == "svc-hit" && (l["optimizer.flow_cards_per_job"] != 0 ||
			l["client.requests_per_job"] != 3 || l["planstore.hit_ratio"] != 1) {
			t.Errorf("svc-hit: flow cards %v, requests per job %v, hit ratio %v; want 0, 3, 1",
				l["optimizer.flow_cards_per_job"], l["client.requests_per_job"], l["planstore.hit_ratio"])
		}
		if def.name != "svc-miss" && def.name != "cluster-hit" {
			continue // one searching and one store-answered workload repeat; that covers every exact counter
		}
		second := smallRun(t, def.name, dir)
		if a, b := first.EndToEnd["plan_speedup"], second.EndToEnd["plan_speedup"]; a != b {
			t.Errorf("%s: plan_speedup %v then %v", def.name, a, b)
		}
		for _, d := range perLayer {
			if a, b := first.PerLayer[d.Name], second.PerLayer[d.Name]; d.Exact && a != b {
				t.Errorf("%s: exact metric %s read %v then %v", def.name, d.Name, a, b)
			}
		}
	}

	left, err := os.ReadDir(dir)
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directory after teardown: %v entries, err %v", len(left), err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) // connection goroutines unwind just after Close returns
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after teardown:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestBenchmarkJSONMatchesTables checks BENCHMARK.json against the metric
// and workload tables the program reports from, and the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: %q differs from the program's %q", i, w.Name, workloadDefs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v differs from the program's %s/%s/%s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if (w.Bound != 0) != (g.Bound != nil) || (g.Bound != nil && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, 16)
	check("per_layer", doc.PerLayer, perLayer, 128)
}

// TestMetricTables checks the name and unit grammar, uniqueness, bounds,
// and that every per-layer metric names the end-to-end metric and workload
// it is expected to move, or says none.
func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is missing from the end-to-end metrics")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameGrammar.MatchString(d.Name) || !unitGrammar.MatchString(d.Unit) {
			t.Errorf("%s [%s]: name or unit outside the grammar", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("%s: declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range workloadDefs {
		if !nameGrammar.MatchString(d.name) || seen[d.name] {
			t.Errorf("workload %s: name outside the grammar or already used", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range perLayer {
		if d.Layer == "" {
			t.Errorf("%s: no layer", d.Name)
		}
		if d.Moves == "none" {
			continue
		}
		for _, move := range strings.Split(d.Moves, ";") {
			metric, workloads, ok := strings.Cut(move, "@")
			if !ok || !e2e[metric] {
				t.Errorf("%s: moves %q names no end-to-end metric", d.Name, move)
			}
			for _, w := range strings.Split(workloads, ",") {
				if findWorkload(w) == nil {
					t.Errorf("%s: moves %q names unknown workload %q", d.Name, move, w)
				}
			}
		}
	}
}

// TestSelfTime checks the span arithmetic on a hand-built tree: a parent of
// 100 with children [10,30], [20,50] (overlapping) and [70,80], one of which
// has a child of its own.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "harness", Name: "job", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "client", Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Layer: "client", Name: "b", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Layer: "planio", Name: "c", StartNS: 70, EndNS: 80},
		{ID: 5, Parent: 3, Layer: "optimizer", Name: "d", StartNS: 25, EndNS: 45},
		{ID: 6, Parent: 0, Layer: "harness", Name: "probe", StartNS: 200, EndNS: 260},
		{ID: 7, Parent: 6, Layer: "planio", Name: "e", StartNS: 190, EndNS: 230}, // clipped to its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20, 6: 30, 7: 40} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	near := func(got, wantNS float64) bool { return math.Abs(got*1e6-wantNS) < 1e-6 }
	jobs := layerSelfMS(spans, "job")
	if !near(jobs["harness"], 50) || !near(jobs["client"], 30) || !near(jobs["planio"], 10) || !near(jobs["optimizer"], 20) {
		t.Errorf("layer self time of jobs = %v", jobs)
	}
	if probes := layerSelfMS(spans, "probe"); !near(probes["planio"], 40) || len(probes) != 2 {
		t.Errorf("layer self time of probes = %v", probes)
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(v, n=4): [1..10] has quartiles 2.75 and 8.25.
func TestQuartileSpread(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got, want := quartileSpread([]float64{2, 4, 8}), (8.0-2.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(2,4,8) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "job_time_rel", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rel", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 1.0, 1.05, 0.02, "within"},
		{lower, 1.0, 1.20, 0.02, "outside"},
		{lower, 1.0, 0.50, 0.02, "within"},
		{lower, 1.0, 1.05, 0.30, "unresolved"},
		{lower, 1.0, 1.20, 0.30, "outside"},
		{higher, 1.0, 0.95, 0.02, "within"},
		{higher, 1.0, 0.80, 0.02, "outside"},
		{higher, 1.0, 1.50, 0.02, "within"},
		{lower, 0, 1, 0, "outside"},
	} {
		if got, _ := judge(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("judge(%s, %v, %v, spread %v) = %s, want %s", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}
