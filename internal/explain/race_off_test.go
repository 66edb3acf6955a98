//go:build !race

package explain

const raceEnabled = false
