// Command benchmark is the repository's benchmark: it builds and profiles the
// paper's workflows from a seed, drives one of four closed-loop workloads
// through the public surfaces of the optimizer (Session, Client and Server
// over loopback sockets, Coordinator and WorkerAgent), verifies every
// returned plan, and prints every metric by name with its unit.
//
//	go run -C benchmark . --workload svc-hit --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics of one workload, and as its last line the
// result object BENCHMARK.json's contract asks for. --trace 1 prints the
// per-layer metrics of a traced run instead. Without --workload every
// workload runs, and without --trace both runs are made. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: lib-search, svc-miss, svc-hit, cluster-hit or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs and of the searches")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1: both")
		out      = flag.String("out", "", "write the results as JSON to this file (the input of -compare)")
		traceOut = flag.String("trace-out", "", "write the traced run's spans as JSON to this file")
		dir      = flag.String("dir", "", "directory for stores and journals (default: .bench_build/scratch in the checkout)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	defs := workloadDefs
	if *workload != "all" {
		def := findWorkload(*workload)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []*workloadDef{def}
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be positive and -trace one of -1, 0, 1"))
	}
	scratch := *dir
	if scratch == "" {
		scratch = scratchDir()
	}

	var results []*result
	var spans []span
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == 0) || (!traced && *trace == 1) {
				continue
			}
			res, err := runWorkload(def, config{seed: *seed, seconds: *seconds, traced: traced, dir: scratch})
			if err != nil {
				fatal(err)
			}
			report(os.Stdout, res)
			results = append(results, res)
			spans = append(spans, res.spans...)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			fatal(err)
		}
	}
	correct := true
	for _, res := range results {
		correct = correct && res.Correct
	}
	if len(results) == 1 {
		line, err := json.Marshal(contractLine(results[0]))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the object a single-workload run prints last.
func contractLine(res *result) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		defs, values = perLayer, res.PerLayer
	}
	for _, d := range defs {
		metrics[d.Name] = value{values[d.Name], d.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// report prints one run's metrics by name, with units.
func report(w *os.File, res *result) {
	kind := "end-to-end, tracing off"
	if res.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "== %s (%s)  seed %d, %.0f s, %s, %d CPUs\n", res.Workload, kind, res.Seed, res.Seconds, res.GoVersion, res.NumCPU)
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM %s\n", p)
	}
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.Name]; ok && !res.Traced {
			fmt.Fprintf(w, "   %-36s %14.6g %-9s (%s is better, bound %.0f %%)\n", d.Name, v, d.Unit, d.Better, 100*d.Bound)
		}
	}
	if !res.Traced {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
	// Shares and total are read together: self time by layer of the traced
	// jobs and of the direct probes, beside the untraced median job time.
	fmt.Fprintf(w, "   layer self time, traced jobs (untraced job_ms_p50 %.3f ms):%s\n",
		res.PerLayer["harness.job_ms_p50"], shares(res.JobLayerMS))
	fmt.Fprintf(w, "   layer self time, direct probes:%s\n", shares(res.ProbeLayerMS))
}

func shares(byLayer map[string]float64) string {
	total := 0.0
	var layers []string
	for l, v := range byLayer {
		total += v
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	s := ""
	for _, l := range layers {
		s += fmt.Sprintf(" %s %.1f%%", l, 100*byLayer[l]/total)
	}
	return s
}
