package fexiot

import "fexiot/internal/serve"

// SnapshotOf is the frozen snapshot sys answers from (nil before training),
// for benchmarks that read what the facade does not return.
func SnapshotOf(sys *System) *serve.Snapshot { return sys.state.Load() }
