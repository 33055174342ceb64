package fault

import "flag"

// FlagUsage is the -chaos help text shared by the binaries.
const FlagUsage = "arm deterministic fault injection (dev), e.g. " +
	`"seed=42;store.append:p=0.01;worker.panic:every=7;worker.slow:p=0.5,delay=50ms"`

// Flag registers the -chaos development flag on fs (the default flag set
// when fs is nil) and returns the string it fills; pass the value to
// Apply after flag parsing.
func Flag(fs *flag.FlagSet) *string {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.String("chaos", "", FlagUsage)
}
