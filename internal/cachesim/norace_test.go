//go:build !race

package cachesim

const raceEnabled = false
