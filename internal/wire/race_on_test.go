//go:build race

package wire

// raceEnabled reports whether the race detector is active; it drops
// pooled parsers at random, so allocation counts are skipped under -race.
const raceEnabled = true
