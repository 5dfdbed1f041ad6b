//go:build race

package core_test

// raceEnabled reports a -race build, whose sync.Pool drops pooled items
// at random by design, so allocation pins cannot hold.
const raceEnabled = true
