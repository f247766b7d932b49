package wf

import "fmt"

// Config is the per-job configuration a configuration transformation
// rewrites (Section 3.5). It is a small but representative slice of the
// dozens of Hadoop parameters the paper cites, chosen so that every
// performance effect the evaluation exercises has a knob:
// parallelism (reduce tasks, split size), the sort/spill pipeline
// (sort buffer, merge factor), pre-aggregation (combiner), and I/O
// compression trade-offs. Its JSON names are wire schema: every job of a
// plan document carries its Config as is, so renaming a tag is a format
// version bump.
type Config struct {
	// NumReduceTasks sets reduce-side parallelism. Ignored for map-only
	// jobs and overridden by range partitioning's split-point count.
	NumReduceTasks int `json:"numReduceTasks"`
	// SplitSizeMB controls map-side parallelism: each map task consumes
	// roughly this many (virtual) megabytes of input. Ignored when the
	// job's map tasks are aligned to input partitions by a vertical
	// packing postcondition.
	SplitSizeMB int `json:"splitSizeMB"`
	// SortBufferMB is the in-memory buffer for sorting map output; output
	// exceeding it spills to disk in multiple passes.
	SortBufferMB int `json:"sortBufferMB"`
	// IOSortFactor caps how many spill runs merge in one pass.
	IOSortFactor int `json:"ioSortFactor"`
	// UseCombiner enables the combine function where one is defined.
	UseCombiner bool `json:"useCombiner,omitempty"`
	// CompressMapOutput compresses intermediate map output (less I/O and
	// shuffle bytes, more CPU).
	CompressMapOutput bool `json:"compressMapOutput,omitempty"`
	// CompressOutput compresses the job's output dataset, affecting both
	// this job's write cost and downstream read costs.
	CompressOutput bool `json:"compressOutput,omitempty"`
}

// DefaultConfig mirrors stock Hadoop defaults: one reducer, 128 MB splits,
// 100 MB sort buffer, merge factor 10, no combiner, no compression.
func DefaultConfig() Config {
	return Config{
		NumReduceTasks: 1,
		SplitSizeMB:    128,
		SortBufferMB:   100,
		IOSortFactor:   10,
	}
}

// Validate rejects non-positive parameters.
func (c Config) Validate() error {
	if c.NumReduceTasks < 1 {
		return fmt.Errorf("wf: NumReduceTasks %d < 1", c.NumReduceTasks)
	}
	if c.SplitSizeMB < 1 {
		return fmt.Errorf("wf: SplitSizeMB %d < 1", c.SplitSizeMB)
	}
	if c.SortBufferMB < 1 {
		return fmt.Errorf("wf: SortBufferMB %d < 1", c.SortBufferMB)
	}
	if c.IOSortFactor < 2 {
		return fmt.Errorf("wf: IOSortFactor %d < 2", c.IOSortFactor)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("reduce=%d split=%dMB buf=%dMB factor=%d combiner=%v mapcomp=%v outcomp=%v",
		c.NumReduceTasks, c.SplitSizeMB, c.SortBufferMB, c.IOSortFactor,
		c.UseCombiner, c.CompressMapOutput, c.CompressOutput)
}
