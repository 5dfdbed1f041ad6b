//go:build !race

package selector

const raceEnabled = false
