//go:build race

// Package race reports whether the race detector is compiled in, for
// the allocation-budget tests: under the detector sync.Pool drops a
// quarter of what it is given and the runtime allocates on its own, so
// an allocation count measures the detector, not the code.
package race

// Enabled is true in builds with -race.
const Enabled = true
