//go:build race

package query

// raceEnabled: the race detector's instrumentation moves stack buffers
// to the heap, so allocation counts are asserted without it only.
const raceEnabled = true
