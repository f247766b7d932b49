package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// compareFiles prints, for every workload both sides hold and every
// end-to-end metric: both values, how much worse the second is as a share of
// the first, the metric's bound, and a verdict. `outside` means the second
// is worse by more than the bound; `unresolved` means it is not, but the
// spread of either side is wider than the bound, so "no regression" cannot
// be claimed; `within` otherwise. It reports whether no pairing is outside
// and every run is correct.
//
// A side is one -out file or several, separated by commas. With several
// runs of a workload, the value is the median over the runs and the spread
// is the distance between their quartiles as a share of it; with one run,
// the spread is (max-min)/median of its rounds. A single 10 s run on a shared host is rarely enough: compare the
// medians of ten runs a side, made alternately.
func compareFiles(w io.Writer, sideA, sideB string) (bool, error) {
	a, err := readResults(sideA)
	if err != nil {
		return false, err
	}
	b, err := readResults(sideB)
	if err != nil {
		return false, err
	}
	ok, compared := true, 0
	fmt.Fprintf(w, "%-12s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, def := range workloadDefs {
		ra, rb := a[def.name], b[def.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]*result{}, ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-12s incorrect run (seed %d): %v\n", def.name, r.Seed, r.Problems)
				ok = false
			}
		}
		fmt.Fprintf(w, "%-12s %d and %d runs\n", def.name, len(ra), len(rb))
		for _, d := range endToEnd {
			va, sa := summarize(ra, d.Name)
			vb, sb := summarize(rb, d.Name)
			verdict, worse := judge(d, va, vb, max(sa, sb))
			if verdict == "outside" {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-18s %12.6g %12.6g %+8.1f%% %6.1f%%  %s\n", def.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
			compared++
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s share no end-to-end result", sideA, sideB)
	}
	return ok, nil
}

// summarize returns a side's value of one metric and its spread.
func summarize(runs []*result, metric string) (value, spreadOf float64) {
	if len(runs) == 1 {
		return runs[0].EndToEnd[metric], spread(runs[0].Samples[metric])
	}
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.EndToEnd[metric]
	}
	return median(v), quartileSpread(v)
}

// judge returns the verdict on one pairing and how much worse b is than a,
// as a share of a (negative when b is better).
func judge(d metricDef, a, b, spreadOf float64) (string, float64) {
	if a == 0 {
		return "outside", 0 // an end-to-end metric is never 0; the first side is broken
	}
	worse := (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "outside", worse
	case spreadOf > d.Bound:
		return "unresolved", worse
	}
	return "within", worse
}

// readResults loads a side's -out files and groups their end-to-end results
// by workload.
func readResults(side string) (map[string][]*result, error) {
	byWorkload := map[string][]*result{}
	for _, path := range strings.Split(side, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var list []*result
		if err := json.Unmarshal(data, &list); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range list {
			if !r.Traced {
				byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
			}
		}
	}
	return byWorkload, nil
}
