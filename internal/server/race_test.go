//go:build race

package server

// raceEnabled reports a -race build, whose runtime allocates on its own.
const raceEnabled = true
