//go:build race

package experiment

// raceEnabled lets host-timed tests skip under -race: the race runtime
// instruments every call, which is not what those tests time.
const raceEnabled = true
