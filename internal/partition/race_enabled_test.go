//go:build race

package partition_test

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops a fraction of Puts, so pooled paths cannot
// be allocation-free and the allocation guards skip themselves.
const raceEnabled = true
