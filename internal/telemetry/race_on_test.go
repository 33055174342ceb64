//go:build race

package telemetry

// raceEnabled lets allocation guards stand down under the race
// detector, whose instrumentation changes what escapes to the heap.
const raceEnabled = true
