//go:build !race

package controls

const raceEnabled = false
