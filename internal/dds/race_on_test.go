//go:build race

package dds_test

// raceEnabled lets allocation-pinning tests skip under -race: the race
// runtime allocates on the instrumented paths.
const raceEnabled = true
