//go:build race

package assign

const raceEnabled = true
