//go:build !race

package sqlparse

const raceEnabled = false
