//go:build race

package selector

// raceEnabled reports a -race build, whose sync.Pool drops pooled items
// at random by design, so pooled-scratch allocation pins cannot hold.
const raceEnabled = true
