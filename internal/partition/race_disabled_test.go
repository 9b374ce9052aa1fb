//go:build !race

package partition_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
