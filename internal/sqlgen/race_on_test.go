//go:build race

package sqlgen

// raceEnabled: the race detector's instrumentation moves stack buffers
// to the heap, so allocation bounds are asserted without it only.
const raceEnabled = true
