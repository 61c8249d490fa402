//go:build !race

package cfront

const raceEnabled = false
