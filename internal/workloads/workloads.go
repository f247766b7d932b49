// Package workloads builds the eight evaluation workflows of the paper's
// Section 7.1 (Table 1) as annotated plans over synthetic datasets
// materialized on the simulated DFS. Dataset scales are laptop-sized in
// records; each workload carries a cluster whose VirtualScale maps the
// materialized bytes onto the paper's dataset sizes (e.g. 264 GB for IR),
// so cost dynamics — waves, shuffle volumes, spills — match the paper's
// regime.
package workloads

import (
	"fmt"
	"sort"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Options controls workload construction.
type Options struct {
	// SizeFactor scales the materialized record counts (default 1.0).
	// The virtual (paper-equivalent) size is unaffected: fewer records
	// simply stand for more real records each.
	SizeFactor float64
	// Seed drives the deterministic generators.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.SizeFactor <= 0 {
		o.SizeFactor = 1
	}
	return o
}

func (o Options) n(base int) int {
	n := int(float64(base) * o.SizeFactor)
	if n < 10 {
		n = 10
	}
	return n
}

// Workload is one evaluation workflow plus its materialized inputs and the
// cluster scaled to the paper's dataset size.
type Workload struct {
	// Abbr is the paper's abbreviation (IR, SN, LA, WG, BA, BR, PJ, US).
	Abbr string
	// Title is the workload's name in Table 1.
	Title string
	// PaperGB is the dataset size reported in Table 1.
	PaperGB float64
	// Workflow is the unoptimized annotated plan.
	Workflow *wf.Workflow
	// DFS holds the generated base datasets.
	DFS *mrsim.DFS
	// Cluster is the evaluation cluster with VirtualScale set so the
	// materialized data represents PaperGB.
	Cluster *mrsim.Cluster
}

type entry struct {
	abbr, title string
	gb          float64
	build       func(opt Options) (*wf.Workflow, *mrsim.DFS, error)
}

var registry = []entry{
	{"IR", "Information Retrieval", 264, buildIR},
	{"SN", "Social Network Analysis", 267, buildSN},
	{"LA", "Log Analysis", 500, buildLA},
	{"WG", "Web Graph Analysis", 255, buildWG},
	{"BA", "Business Analytics Query", 550, buildBA},
	{"BR", "Business Report Generation", 530, buildBR},
	{"PJ", "Post-processing Jobs", 10, buildPJ},
	{"US", "User-defined Logical Splits", 530, buildUS},
}

// Abbrs lists the workload abbreviations in Table 1 order.
func Abbrs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.abbr
	}
	return out
}

// Title returns the full workload name for an abbreviation.
func Title(abbr string) string {
	for _, e := range registry {
		if e.abbr == abbr {
			return e.title
		}
	}
	return ""
}

// PaperGB returns the Table 1 dataset size for an abbreviation.
func PaperGB(abbr string) float64 {
	for _, e := range registry {
		if e.abbr == abbr {
			return e.gb
		}
	}
	return 0
}

// Build constructs a workload by abbreviation.
func Build(abbr string, opt Options) (*Workload, error) {
	opt = opt.withDefaults()
	for _, e := range registry {
		if e.abbr != abbr {
			continue
		}
		w, dfs, err := e.build(opt)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", abbr, err)
		}
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", abbr, err)
		}
		cluster := mrsim.DefaultCluster()
		var bytes float64
		for _, id := range dfs.IDs() {
			stored, _ := dfs.Get(id)
			bytes += float64(stored.Bytes())
		}
		if bytes > 0 {
			cluster.VirtualScale = e.gb * 1e9 / bytes
		}
		return &Workload{
			Abbr: e.abbr, Title: e.title, PaperGB: e.gb,
			Workflow: w, DFS: dfs, Cluster: cluster,
		}, nil
	}
	known := Abbrs()
	sort.Strings(known)
	return nil, fmt.Errorf("workloads: unknown workload %q (known: %v)", abbr, known)
}
