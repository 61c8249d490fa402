//go:build race

package server

// raceEnabled reports that the race detector instruments this build.
// Its instrumentation changes what the compiler allocates, so the
// allocation pins skip their bounds under it.
const raceEnabled = true
