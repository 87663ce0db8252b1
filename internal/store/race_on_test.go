//go:build race

package store

// raceEnabled is true under -race, where sync.Pool drops a share of what
// it is given, so pooled state is rebuilt and allocation counts mean
// nothing.
const raceEnabled = true
