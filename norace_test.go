//go:build !race

package rsonpath

const raceEnabled = false
