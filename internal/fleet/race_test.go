//go:build race

package fleet

func init() { raceEnabled = true }
