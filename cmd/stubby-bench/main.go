// Command stubby-bench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the simulated substrate.
//
// Usage:
//
//	stubby-bench -all                      # every declared figure and ablation
//	stubby-bench -fig table1,5,11,12,13,14
//	stubby-bench -fig ordering,search,units,profile,seed,whatif
//	stubby-bench -fig incremental,robustness,reuse
//	stubby-bench -fig 11 -size 0.5 -seed 7
//	stubby-bench -all -ledger BENCH_paper.json
//	stubby-bench -all -ledger /tmp/paper.json -ledger-guard BENCH_paper.json
//	stubby-bench -fig 12 -cpuprofile cpu.prof -memprofile mem.prof
//	stubby-bench -list-optimizers
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"text/tabwriter"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/bench"
)

func main() {
	figs := figures()
	var ids []string
	for _, f := range figs {
		ids = append(ids, f.id)
	}
	var (
		fig        = flag.String("fig", "", "comma-separated figures to regenerate: "+strings.Join(ids, ", "))
		all        = flag.Bool("all", false, "regenerate every declared figure and ablation")
		ledger     = flag.String("ledger", "", "write the paper ledger (every grid cell and the evaluation's claims as pass/fail invariants) to this file")
		ledgerGrd  = flag.String("ledger-guard", "", "baseline ledger (BENCH_paper.json) a fresh one must equal in everything but optimize_ms")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
		listOpts   = flag.Bool("list-optimizers", false, "list registered optimizers and exit")
		size       = flag.Float64("size", 0.25, "workload size factor (records scale)")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *listOpts {
		fmt.Println("Optimizers:")
		for _, spec := range baselines.DefaultRegistry().Specs() {
			fmt.Printf("  %-11s %s\n", spec.Name, spec.Description)
		}
		return
	}
	h := bench.New(bench.Config{SizeFactor: *size, Seed: *seed})
	ran := false
	// Profile teardown must also run on the error paths below: os.Exit
	// skips defers, so fail() and the usage exit flush explicitly (a CPU
	// profile missing its trailing records is unreadable, and the heap
	// profile of a failing run is often exactly the one wanted).
	var profOnce sync.Once
	stopProfiles := func() {}
	exit := func(code int) {
		profOnce.Do(stopProfiles)
		os.Exit(code)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "stubby-bench:", err)
		exit(1)
	}
	if *cpuProfile != "" || *memProfile != "" {
		var cpuOut *os.File
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			cpuOut = f
		}
		memPath := *memProfile
		stopProfiles = func() {
			if cpuOut != nil {
				pprof.StopCPUProfile()
				cpuOut.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "stubby-bench:", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "stubby-bench:", err)
				}
				f.Close()
			}
		}
		defer profOnce.Do(stopProfiles)
	}
	selected := ids
	if !*all {
		selected = strings.FieldsFunc(*fig, func(r rune) bool { return r == ',' })
	}
	// Every id is checked before the first figure runs: a typo must not
	// cost the tens of seconds the figures before it take.
	for _, id := range selected {
		if !slices.Contains(ids, id) {
			fail(fmt.Errorf("unknown figure %q (have %s)", id, strings.Join(ids, ", ")))
		}
	}
	for _, id := range selected {
		ran = true
		if err := figs[slices.Index(ids, id)].print(h); err != nil {
			fail(err)
		}
	}
	if *ledger != "" || *ledgerGrd != "" {
		ran = true
		if err := runLedger(h, *ledger, *ledgerGrd); err != nil {
			fail(err)
		}
	}
	if !ran {
		flag.Usage()
		exit(2)
	}
}

// figure is one selectable result: a driver of its own for the two that are
// not grid-shaped, the grid renderer for each bench.Figures declaration.
type figure struct {
	id    string
	print func(*bench.Harness) error
}

// figures lists every figure in -all's order.
func figures() []figure {
	out := []figure{{"table1", printTable1}, {"5", printFig5}}
	for _, f := range bench.Figures {
		out = append(out, figure{f.ID, func(h *bench.Harness) error { return h.WriteFigure(os.Stdout, f) }})
	}
	return out
}

// runLedger assembles the paper ledger (running whatever the figures printed
// so far have not), prints its invariants, and writes and guards it.
func runLedger(h *bench.Harness, out, guard string) error {
	l, err := h.Ledger()
	if err != nil {
		return err
	}
	tw := table("Invariants: the evaluation's claims over the ledger's cells, failing workloads beneath",
		"Invariant", "Verdict", "Workflow", "Margin", "Detail")
	verdict := map[bool]string{true: "pass", false: "FAIL"}
	for _, inv := range l.Invariants {
		fmt.Fprintf(tw, "%s\t%s\t\t\t%s\n", inv.Name, verdict[inv.Pass], inv.Claim)
		for _, v := range inv.Verdicts {
			if !v.Pass {
				fmt.Fprintf(tw, "\t\t%s\t%+.1f%%\t%s\n", v.Workload, 100*v.Margin, v.Detail)
			}
		}
	}
	flush(tw)
	optimizeMS := func(l bench.Ledger) (ms float64) {
		for _, c := range l.Cells {
			ms += c.OptimizeMS
		}
		return ms
	}
	fmt.Printf("%d cells, %.0f ms of optimization\n", len(l.Cells), optimizeMS(l))
	if out != "" {
		if err := bench.WriteJSON(out, l); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if guard != "" {
		var baseline bench.Ledger
		if err := bench.ReadJSON(guard, &baseline); err != nil {
			return err
		}
		if err := bench.GuardLedger(l, baseline); err != nil {
			return err
		}
		fmt.Printf("ledger guard passed against %s: %d cells and %d invariants equal; optimization %.0f ms, baseline %.0f ms (not guarded)\n",
			guard, len(l.Cells), len(l.Invariants), optimizeMS(l), optimizeMS(baseline))
	}
	return nil
}

// table prints a title and starts an aligned table on stdout: the caller
// writes tab-separated rows to it and hands it to flush.
func table(title string, header ...string) *tabwriter.Writer {
	fmt.Println(title)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	return tw
}

func flush(tw *tabwriter.Writer) {
	tw.Flush()
	fmt.Println()
}

func printTable1(h *bench.Harness) error {
	rows, err := h.Table1()
	if err != nil {
		return err
	}
	tw := table("Table 1: MapReduce workflows and corresponding data sizes",
		"Abbr", "Workflow", "Paper size", "Simulated size", "Records", "Jobs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f GB\t%.0f GB\t%d\t%d\n", r.Abbr, r.Title, r.PaperGB, r.VirtualGB, r.Records, r.Jobs)
	}
	flush(tw)
	return nil
}

func printFig5(h *bench.Harness) error {
	rows, err := h.Figure5()
	if err != nil {
		return err
	}
	tw := table("Figure 5: performance degradation and improvement caused by packing",
		"Transformation", "Case", "No packing", "With packing", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.1f s\t%.1f s\t%.2fx\n", r.Transformation, r.Case, r.Unpacked, r.Packed, r.Speedup)
	}
	flush(tw)
	return nil
}
