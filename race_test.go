//go:build race

package rsonpath

// raceEnabled reports whether the race detector is compiled in; tests that
// count a pooled path's allocations skip under it (the detector drops
// random sync.Pool Puts, so a dropped run state is rebuilt at random).
const raceEnabled = true
