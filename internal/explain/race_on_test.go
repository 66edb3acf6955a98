//go:build race

package explain

const raceEnabled = true
