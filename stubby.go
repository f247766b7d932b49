// Package stubby is a transformation-based, cost-based optimizer for
// MapReduce workflows, reproducing Lim, Herodotou, and Babu, "Stubby: A
// Transformation-based Optimizer for MapReduce Workflows" (PVLDB 5(11),
// 2012), together with the substrate the paper depends on: an executable
// MapReduce runtime simulator with a calibrated cost model, a
// Starfish-style profiler and What-if cost estimator, Recursive Random
// Search for configuration tuning, the comparator optimizers of the
// paper's evaluation (Baseline, Starfish, YSmart, MRShare), and the eight
// evaluation workflows of Table 1.
//
// # Quick start
//
//	wl, _ := stubby.BuildWorkload("BR", stubby.WorkloadOptions{})
//	sess, _ := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(1))
//	ctx := context.Background()
//	_ = sess.Profile(ctx, wl.Workflow, wl.DFS)
//	res, _ := sess.Optimize(ctx, wl.Workflow)
//	before, _ := sess.Run(ctx, wl.DFS.Clone(), wl.Workflow)
//	after, _ := sess.Run(ctx, wl.DFS.Clone(), res.Plan)
//	fmt.Printf("speedup: %.2fx\n", before.Makespan/after.Makespan)
//
// Session is the primary entry point: a reusable, concurrent-safe facade
// holding the cluster, planner registry, and default options, with
// context-aware (cancellable) and observable methods, plus concurrent
// fan-out over independent workflows via OptimizeAll.
//
// # Service API
//
// Session.Submit is the asynchronous face of the same optimizer: it admits
// an OptimizeRequest to a bounded queue and returns an OptimizeHandle with
// State/Progress/Wait/Cancel and a typed Event stream (Events), shedding
// overload with ErrKindOverloaded instead of queueing unbounded work.
// Server exposes that lifecycle over HTTP as versioned JSON documents (the
// stubbyd command), and Client consumes it remotely with the same
// semantics — including the *Error taxonomy, which errors.Is/As resolve
// identically in-process and over the wire. Plans cross the wire
// structure-only (annotations, no function bodies), the paper's Figure 2
// deployment where the optimizer service never sees user code.
//
// The exported identifiers below are aliases into the implementation
// packages, so the whole system is scriptable through this one import.
package stubby

import (
	"io"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/lang"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// Plan representation (the annotated workflow of Section 2).
type (
	// Workflow is the plan DAG of jobs and datasets plus annotations.
	Workflow = wf.Workflow
	// Job is one MapReduce job vertex.
	Job = wf.Job
	// Dataset is one dataset vertex.
	Dataset = wf.Dataset
	// MapBranch is a map-side pipeline of a job.
	MapBranch = wf.MapBranch
	// ReduceGroup is a reduce-side pipeline of a job.
	ReduceGroup = wf.ReduceGroup
	// Stage is one map or reduce function in a pipeline.
	Stage = wf.Stage
	// Config is a job configuration.
	Config = wf.Config
	// Layout is a dataset physical design.
	Layout = wf.Layout
	// Filter is a filter annotation.
	Filter = wf.Filter
	// JobProfile is a profile annotation.
	JobProfile = wf.JobProfile
	// Emit is the output callback of map and reduce functions.
	Emit = wf.Emit
	// MapFn is the map function signature.
	MapFn = wf.MapFn
	// ReduceFn is the reduce/combine function signature.
	ReduceFn = wf.ReduceFn

	// Tuple is a record key or value.
	Tuple = keyval.Tuple
	// Pair is one key-value record.
	Pair = keyval.Pair
	// Interval is a half-open field interval.
	Interval = keyval.Interval
	// PartitionSpec describes a job's partition function.
	PartitionSpec = keyval.PartitionSpec

	// Cluster describes the simulated cluster and cost calibration.
	Cluster = mrsim.Cluster
	// DFS is the simulated distributed file system.
	DFS = mrsim.DFS
	// RunReport is the result of executing a workflow.
	RunReport = mrsim.RunReport
	// JobReport is one job's execution record.
	JobReport = mrsim.JobReport

	// Options tunes the Stubby optimizer.
	Options = optimizer.Options
	// Result is the optimizer's outcome.
	Result = optimizer.Result
	// Groups selects transformation groups.
	Groups = optimizer.Groups
	// Transformation is a user-defined structural transformation
	// registered through Options.Custom (EXODUS-style extensibility).
	Transformation = optimizer.Transformation
	// Proposal is one plan rewrite offered by a custom Transformation.
	Proposal = optimizer.Proposal

	// Estimate is a What-if cost prediction.
	Estimate = whatif.Estimate
	// Robustness is a plan's Monte-Carlo makespan distribution under a
	// fault model (see Session.Robustness and WithRobustness).
	Robustness = whatif.Robustness
	// RobustnessOptions configures Monte-Carlo robustness evaluation.
	RobustnessOptions = whatif.RobustnessOptions

	// FaultModel perturbs the simulated cluster with task failures,
	// straggler slowdowns, heterogeneous node classes, and speculative
	// re-execution, all deterministic under its seed.
	FaultModel = mrsim.FaultModel
	// NodeClass is one homogeneous node group of a heterogeneous cluster.
	NodeClass = mrsim.NodeClass

	// Planner is the common interface of all compared optimizers.
	Planner = baselines.Planner

	// Workload is one of the paper's evaluation workflows.
	Workload = workloads.Workload
	// WorkloadOptions controls workload construction.
	WorkloadOptions = workloads.Options

	// PlanRegistry rebinds black-box stage functions when importing plans.
	PlanRegistry = planio.Registry
)

// Transformation group selectors.
const (
	GroupVertical   = optimizer.GroupVertical
	GroupHorizontal = optimizer.GroupHorizontal
	GroupConfigOnly = optimizer.GroupConfigOnly
	GroupAll        = optimizer.GroupAll
)

// Partition function types.
const (
	HashPartitionType  = keyval.HashPartition
	RangePartitionType = keyval.RangePartition
)

// T builds a tuple from scalar values.
func T(fields ...any) Tuple { return keyval.T(fields...) }

// SortPairs sorts records by the key projection onto fields (nil = whole
// key), breaking ties deterministically.
func SortPairs(pairs []Pair, fields []int) { keyval.SortPairs(pairs, fields) }

// MapStage builds a per-record pipeline stage.
func MapStage(name string, fn MapFn, cpuPerRecord float64) Stage {
	return wf.MapStage(name, fn, cpuPerRecord)
}

// ReduceStage builds a grouped pipeline stage.
func ReduceStage(name string, fn ReduceFn, groupFields []int, cpuPerRecord float64) Stage {
	return wf.ReduceStage(name, fn, groupFields, cpuPerRecord)
}

// DefaultCluster returns the evaluation cluster: 50 nodes x (3 map, 2
// reduce) slots, matching the paper's testbed shape.
func DefaultCluster() *Cluster { return mrsim.DefaultCluster() }

// DefaultConfig returns stock-Hadoop-like job defaults.
func DefaultConfig() Config { return wf.DefaultConfig() }

// NewDFS returns an empty simulated file system.
func NewDFS() *DFS { return mrsim.NewDFS() }

// IngestSpec tells Ingest how to lay out a base dataset.
type IngestSpec = mrsim.IngestSpec

// FaultProfile returns a named standard fault model ("standard",
// "failures", "stragglers") rooted at the given seed — the profiles the
// CLIs and the benchmark's robustness rows use.
func FaultProfile(name string, seed int64) (*FaultModel, error) {
	return mrsim.FaultProfile(name, seed)
}

// BuildWorkload constructs one of the paper's eight evaluation workflows
// ("IR", "SN", "LA", "WG", "BA", "BR", "PJ", "US") with generated data.
func BuildWorkload(abbr string, opt WorkloadOptions) (*Workload, error) {
	return workloads.Build(abbr, opt)
}

// Workloads lists the evaluation workflow abbreviations in Table 1 order.
func Workloads() []string { return workloads.Abbrs() }

// Plan import/export (the paper's Section 6 feature for moving annotated
// workflows between workflow generators and Stubby).

// NewPlanRegistry returns an empty registry for rebinding stage functions
// on plan import.
func NewPlanRegistry() *PlanRegistry { return planio.NewRegistry() }

// ExportPlan writes the annotated plan as a versioned JSON document.
// Function bodies are black boxes and are referenced by stage name only.
func ExportPlan(w io.Writer, plan *Workflow) error { return planio.EncodeTo(w, plan) }

// ImportPlan reads a plan document and rebinds every stage function through
// the registry, yielding an executable plan.
func ImportPlan(r io.Reader, reg *PlanRegistry) (*Workflow, error) {
	return planio.DecodeFrom(r, reg)
}

// ImportPlanStructure reads a plan document without binding functions. The
// result carries all annotations and can be costed and optimized — Stubby
// never invokes the functions — but executing it panics.
func ImportPlanStructure(r io.Reader) (*Workflow, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return planio.DecodeStructure(data)
}

// Compose merges independently developed workflows into one plan, stitching
// producer-consumer relationships by shared dataset IDs (the Oozie/EMR
// composition style of Section 1). Use Workflow.Namespace first when
// components reuse job or dataset IDs.
func Compose(name string, parts ...*Workflow) (*Workflow, error) {
	return wf.Compose(name, parts...)
}

// Query interface (the role Pig Latin plays in Figure 2): compile dataflow
// queries to annotated workflows; schema, filter, and dataset annotations
// are derived from the query automatically (Section 6).

// QueryScript is a parsed query.
type QueryScript = lang.Script

// ParseQuery parses query source without compiling it.
func ParseQuery(src string) (*QueryScript, error) { return lang.Parse(src) }

// CompileQuery parses and compiles a dataflow query against the given base
// dataset descriptors into an annotated, unoptimized MapReduce workflow.
// See the internal/lang package documentation for the language reference.
func CompileQuery(src string, bases []*Dataset, name string) (*Workflow, error) {
	return lang.CompileString(src, bases, lang.Options{Name: name})
}
