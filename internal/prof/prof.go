// Package prof wires the standard Go profilers into a command line.
//
// The simulator binaries expose the same flags (-cpuprofile,
// -memprofile, -trace, -debug); Flags registers them and Start arms
// whichever were set, returning a stop function the caller defers. The
// profile outputs load directly into `go tool pprof` / `go tool trace`,
// which is how the hot-path numbers in DESIGN.md were gathered; -debug
// serves the live expvar page (the "pinte" metrics tree of
// internal/telemetry, including the campaign progress internal/runner
// registers there) and the pprof HTTP endpoints for poking at a run
// while it is still going.
package prof

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	_ "expvar"         // registers /debug/vars on the default mux
	_ "net/http/pprof" // registers /debug/pprof on the default mux
)

// Options names the profile outputs. Empty fields are disabled.
type Options struct {
	CPUProfile string // pprof CPU profile path
	MemProfile string // pprof heap profile path (written at stop)
	Trace      string // runtime execution trace path
	// DebugAddr, when non-empty, serves the process debug endpoints —
	// /debug/vars (expvar, including the "pinte" metrics tree with the
	// campaign's live progress) and /debug/pprof — on this address for
	// the lifetime of the run.
	DebugAddr string
}

// Flags registers -cpuprofile, -memprofile, -trace and -debug on fs
// (the default flag set when fs is nil) and returns the Options they
// fill.
func Flags(fs *flag.FlagSet) *Options {
	if fs == nil {
		fs = flag.CommandLine
	}
	o := &Options{}
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&o.Trace, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&o.DebugAddr, "debug", "",
		"serve /debug/vars (live campaign progress) and /debug/pprof on this address, e.g. localhost:6060")
	return o
}

// Start arms the requested profilers. The returned stop function
// flushes and closes every output; call it exactly once, after the
// workload finishes (defer is fine). A nil receiver or an all-empty
// Options yields a no-op stop.
func (o *Options) Start() (stop func() error, err error) {
	if o == nil {
		return func() error { return nil }, nil
	}
	var stops []func() error
	// fail unwinds every profiler armed so far; unwind errors join the
	// original so nothing is silently dropped.
	fail := func(err error) (func() error, error) {
		for i := len(stops) - 1; i >= 0; i-- {
			err = errors.Join(err, stops[i]())
		}
		return nil, err
	}
	// closeProfile finalises one output file: a failed close means the
	// profile on disk is truncated or unflushed, so the partial file is
	// removed rather than left to confuse a later pprof invocation.
	closeProfile := func(kind string, f *os.File) error {
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return fmt.Errorf("%s: closing %s: %w", kind, f.Name(), err)
		}
		return nil
	}

	if o.DebugAddr != "" {
		// Listen synchronously so a bad address fails the command up
		// front; serve in the background until stop.
		ln, err := net.Listen("tcp", o.DebugAddr)
		if err != nil {
			return fail(fmt.Errorf("debug endpoint: %w", err))
		}
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln) //nolint:errcheck // closed by stop below
		stops = append(stops, func() error {
			return srv.Close()
		})
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return closeProfile("cpuprofile", f)
		})
	}
	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fail(fmt.Errorf("trace: %w", err))
		}
		stops = append(stops, func() error {
			trace.Stop()
			return closeProfile("trace", f)
		})
	}
	if o.MemProfile != "" {
		path := o.MemProfile
		stops = append(stops, func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				os.Remove(path)
				return fmt.Errorf("memprofile: %w", err)
			}
			return closeProfile("memprofile", f)
		})
	}

	return func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}, nil
}
