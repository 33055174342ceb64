//go:build race

package sim

// raceEnabled lets allocation guards stand down under the race
// detector, whose sync.Pool randomly drops released objects.
const raceEnabled = true
