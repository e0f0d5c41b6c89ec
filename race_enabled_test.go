//go:build race

package smartsouth

const raceEnabled = true
