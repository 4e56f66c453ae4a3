//go:build race

package engine_test

// raceEnabled: the race detector's instrumentation moves stack buffers
// to the heap, so allocation bounds are asserted without it only.
const raceEnabled = true
