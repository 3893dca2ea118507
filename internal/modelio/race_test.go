//go:build race

package modelio

const raceEnabled = true
