//go:build race

package search

// raceEnabled: the race detector's instrumentation moves stack buffers
// to the heap, so allocation bounds are asserted without it only.
const raceEnabled = true
