//go:build race

package cpdb_test

// raceEnabled reports a -race build. Its sync.Pool drops some of what is
// put back, so an allocation count taken under it runs above the program's.
const raceEnabled = true
