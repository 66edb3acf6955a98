//go:build !race

package gnn

const raceDetector = false
