// The benchmark is a module of its own so that it builds, runs and is
// versioned apart from the code it measures. The replace directive points at
// the repository it sits in; its import path keeps the parent's prefix so the
// parent's internal packages stay importable for the outside-in layer probes.
module github.com/stubby-mr/stubby/benchmark

go 1.22

require github.com/stubby-mr/stubby v0.0.0

replace github.com/stubby-mr/stubby => ../
