//go:build !race

package sqlgen

const raceEnabled = false
