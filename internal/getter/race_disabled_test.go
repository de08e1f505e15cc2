//go:build !race

package getter

const raceEnabled = false
