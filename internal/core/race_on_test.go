//go:build race

package core

// raceEnabled reports whether the race detector is on; it drops
// sync.Pool items at random, so pooled-scratch alloc pins cannot hold.
const raceEnabled = true
