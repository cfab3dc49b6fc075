//go:build !race

package race

// Enabled is true in builds with -race.
const Enabled = false
