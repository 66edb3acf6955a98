//go:build race

package gnn

// raceDetector reports a -race build, under which sync.Pool drops a random
// quarter of what is Put: tests that pin what a warm pool saves skip.
const raceDetector = true
