//go:build race

package runner

// raceEnabled lets allocation guards stand down under the race
// detector, which adds allocations of its own.
const raceEnabled = true
