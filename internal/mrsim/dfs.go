package mrsim

import (
	"fmt"
	"sort"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Partition is one DFS partition (file) of a stored dataset.
type Partition struct {
	// Pairs are the materialized records, in on-disk order.
	Pairs []keyval.Pair
	// Bytes is the encoded (uncompressed, unscaled) size of Pairs.
	Bytes int64
	// Bounds are the key bounds covered by this partition when the dataset
	// is range partitioned; zero bounds mean unknown/unbounded.
	Bounds keyval.PartitionBounds
}

// NewPartition builds a partition and computes its encoded size.
func NewPartition(pairs []keyval.Pair) *Partition {
	return &Partition{Pairs: pairs, Bytes: keyval.PairsSize(pairs)}
}

// Stored is a dataset materialized on the simulated DFS.
type Stored struct {
	// ID is the dataset descriptor.
	ID string
	// Parts are the partitions in partition order.
	Parts []*Partition
	// Layout is the physical design the data actually satisfies.
	Layout wf.Layout
}

// Records returns the total materialized record count.
func (s *Stored) Records() int64 {
	var n int64
	for _, p := range s.Parts {
		n += int64(len(p.Pairs))
	}
	return n
}

// Bytes returns the total encoded (uncompressed, unscaled) size.
func (s *Stored) Bytes() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.Bytes
	}
	return n
}

// AllPairs concatenates all partitions, for tests and result comparison.
func (s *Stored) AllPairs() []keyval.Pair {
	var out []keyval.Pair
	for _, p := range s.Parts {
		out = append(out, p.Pairs...)
	}
	return out
}

// DFS is the simulated distributed file system: named datasets made of
// partitions. It is the persistent storage layer between workflow jobs.
type DFS struct {
	data map[string]*Stored
}

// NewDFS returns an empty file system.
func NewDFS() *DFS {
	return &DFS{data: make(map[string]*Stored)}
}

// Put stores (or replaces) a dataset.
func (f *DFS) Put(id string, parts []*Partition, layout wf.Layout) {
	f.data[id] = &Stored{ID: id, Parts: parts, Layout: layout}
}

// Get returns a stored dataset.
func (f *DFS) Get(id string) (*Stored, bool) {
	s, ok := f.data[id]
	return s, ok
}

// IDs lists stored dataset IDs in sorted order.
func (f *DFS) IDs() []string {
	out := make([]string, 0, len(f.data))
	for id := range f.data {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Clone returns a DFS sharing the (immutable) record slices but with
// independent structure, so one base DFS can serve many workflow runs.
func (f *DFS) Clone() *DFS {
	out := NewDFS()
	for id, s := range f.data {
		parts := make([]*Partition, len(s.Parts))
		for i, p := range s.Parts {
			cp := *p
			parts[i] = &cp
		}
		out.data[id] = &Stored{ID: id, Parts: parts, Layout: s.Layout.Clone()}
	}
	return out
}

// IngestSpec tells Ingest how to lay out a generated base dataset.
type IngestSpec struct {
	// NumPartitions is the target partition count (>=1).
	NumPartitions int
	// KeyFields names the record key fields, enabling the layout's
	// partition/sort names to be resolved to positions.
	KeyFields []string
	// Layout requests the physical design. For RangePartition with nil
	// SplitPoints, equi-depth points are derived from the data.
	Layout wf.Layout
}

// Ingest materializes a base dataset with the requested layout: it
// partitions pairs by the layout's partition fields (hash or range), sorts
// each partition by the sort fields, and records range bounds.
func (f *DFS) Ingest(id string, pairs []keyval.Pair, spec IngestSpec) error {
	if spec.NumPartitions < 1 {
		return fmt.Errorf("mrsim: ingest %q: NumPartitions must be >= 1", id)
	}
	layout := spec.Layout.Clone()
	var partIdx []int
	if len(layout.PartFields) > 0 {
		var ok bool
		partIdx, ok = wf.IndicesOf(spec.KeyFields, layout.PartFields)
		if !ok {
			return fmt.Errorf("mrsim: ingest %q: partition fields %v not in key schema %v",
				id, layout.PartFields, spec.KeyFields)
		}
	}
	pspec := keyval.PartitionSpec{Type: layout.PartType, KeyFields: partIdx}
	n := spec.NumPartitions
	if layout.PartType == keyval.RangePartition && len(layout.PartFields) > 0 {
		if layout.SplitPoints == nil {
			keys := make([]keyval.Tuple, len(pairs))
			for i, p := range pairs {
				keys[i] = p.Key
			}
			layout.SplitPoints = keyval.EquiDepthSplitPoints(keys, partIdx, n)
		}
		pspec.SplitPoints = layout.SplitPoints
		n = len(layout.SplitPoints) + 1
	}
	buckets := make([][]keyval.Pair, n)
	if len(layout.PartFields) == 0 {
		// Unpartitioned data: round-robin into files of similar size.
		for i, p := range pairs {
			b := i % n
			buckets[b] = append(buckets[b], p)
		}
	} else {
		for _, p := range pairs {
			b := pspec.Partition(p.Key, n)
			buckets[b] = append(buckets[b], p)
		}
	}
	var sortIdx []int
	if len(layout.SortFields) > 0 {
		var ok bool
		sortIdx, ok = wf.IndicesOf(spec.KeyFields, layout.SortFields)
		if !ok {
			return fmt.Errorf("mrsim: ingest %q: sort fields %v not in key schema %v",
				id, layout.SortFields, spec.KeyFields)
		}
	}
	parts := make([]*Partition, n)
	var bounds []keyval.PartitionBounds
	if layout.PartType == keyval.RangePartition && len(layout.PartFields) > 0 {
		bounds = keyval.RangeBounds(layout.SplitPoints)
	}
	for i, b := range buckets {
		if sortIdx != nil {
			keyval.SortPairs(b, sortIdx)
		}
		parts[i] = NewPartition(b)
		if bounds != nil {
			parts[i].Bounds = bounds[i]
		}
	}
	f.Put(id, parts, layout)
	return nil
}
