package sim

import (
	"errors"
	"fmt"
)

// Error taxonomy for the execution stack. Every failure surfaced by
// Run and the internal/runner orchestrator wraps one of these
// sentinels, so callers can classify failures with errors.Is and decide
// whether a retry can help (ErrPanic, ErrTimeout, ErrStalled) or not
// (ErrBadConfig, ErrCanceled).
var (
	// ErrBadConfig marks a configuration rejected by Validate before
	// any simulation work started. Never retryable.
	ErrBadConfig = errors.New("sim: invalid configuration")
	// ErrTimeout marks a run that exceeded its per-run wall-clock
	// deadline (context.DeadlineExceeded on the run's context).
	ErrTimeout = errors.New("sim: run exceeded its deadline")
	// ErrPanic marks a run whose simulation goroutine panicked; the
	// panic was recovered so the rest of the campaign survives.
	ErrPanic = errors.New("sim: run panicked")
	// ErrCanceled marks a run stopped by whole-campaign cancellation
	// (SIGINT/SIGTERM or an explicit context cancel).
	ErrCanceled = errors.New("sim: run canceled")
	// ErrStalled marks a run whose worker ignored its expired context for
	// longer than the orchestrator's stall grace: the watchdog abandoned
	// the wedged goroutine and surfaced this instead of hanging the
	// campaign. Retryable — a wedge can be seed-dependent.
	ErrStalled = errors.New("sim: run stalled past its deadline")
)

// PanicError carries the recovered panic value and goroutine stack of a
// crashed run. It wraps ErrPanic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: %v", ErrPanic, e.Value)
}

// Unwrap makes errors.Is(err, ErrPanic) true.
func (e *PanicError) Unwrap() error { return ErrPanic }

// Retryable reports whether a failed run might succeed on a retry with
// a perturbed seed: panics, timeouts and stalls can be seed-dependent,
// while bad configs and cancellations cannot.
func Retryable(err error) bool {
	return errors.Is(err, ErrPanic) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrStalled)
}
