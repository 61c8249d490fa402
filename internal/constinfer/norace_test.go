//go:build !race

package constinfer

const raceEnabled = false
