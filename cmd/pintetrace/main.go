// Command pintetrace generates, inspects and converts instruction
// traces, and verifies result stores against live simulation.
//
//	pintetrace gen -workload 429.mcf -n 1000000 -o mcf.trc.gz
//	pintetrace info mcf.trc.gz
//	pintetrace convert -to champsim mcf.trc.gz mcf.champsim
//	pintetrace convert -from champsim mcf.champsim mcf.trc.gz
//	pintetrace store-verify -store results
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fault"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pintetrace: ")
	if len(os.Args) < 2 {
		usage()
	}
	// SIGINT/SIGTERM stops a long generation or conversion at the next
	// record boundary, leaving a truncated-but-valid output file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "gen":
		cmdGen(ctx, os.Args[2:])
	case "info":
		cmdInfo(ctx, os.Args[2:])
	case "convert":
		cmdConvert(ctx, os.Args[2:])
	case "store-verify":
		cmdStoreVerify(ctx, os.Args[2:])
	default:
		usage()
	}
}

// ctxReader threads cancellation into record pumps: Next fails with the
// context's cause once ctx is done, checked every few thousand records.
type ctxReader struct {
	ctx context.Context
	r   trace.Reader
	n   uint64
}

func (c *ctxReader) Next(rec *trace.Record) error {
	if c.n++; c.n&0xFFF == 0 {
		select {
		case <-c.ctx.Done():
			return fmt.Errorf("interrupted after %d records: %w", c.n-1, c.ctx.Err())
		default:
		}
		// Chaos mode (-chaos trace.read:...) fails the pump with a typed
		// error at the same cadence as the cancellation check.
		if err := fault.Err(fault.SiteTraceRead); err != nil {
			return fmt.Errorf("after %d records: %w", c.n-1, err)
		}
	}
	return c.r.Next(rec)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pintetrace gen -workload <preset> [-n N] [-seed S] -o <file[.gz]>
  pintetrace info <file>
  pintetrace convert -to champsim <in.trc[.gz]> <out>
  pintetrace convert -from champsim <in> <out.trc[.gz]>
  pintetrace store-verify [-store <dir[,MiB]>] [-sample N] [-seed S] [-goldens <dir>]`)
	os.Exit(2)
}

func cmdGen(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	workload := fs.String("workload", "", "benchmark preset")
	n := fs.Uint64("n", 1_000_000, "instructions to generate")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output trace path (.gz compresses)")
	chaos := fault.Flag(fs)
	fs.Parse(args)
	if err := fault.Apply(*chaos); err != nil {
		log.Fatal(err)
	}
	if *workload == "" || *out == "" {
		usage()
	}
	spec, err := trace.SpecFor(*workload)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := trace.NewGenerator(spec, *seed, 0)
	if err != nil {
		log.Fatal(err)
	}
	wrote, err := trace.WriteAll(*out, &ctxReader{ctx: ctx, r: trace.Limit(gen, *n)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d records to %s\n", wrote, *out)
}

func cmdInfo(ctx context.Context, args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := trace.OpenFile(args[0])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r := &ctxReader{ctx: ctx, r: f}

	var (
		rec      trace.Record
		n        uint64
		loads    uint64
		deps     uint64
		stores   uint64
		branches uint64
		taken    uint64
		blocks   = map[uint64]bool{}
		minA     = ^uint64(0)
		maxA     uint64
	)
	for {
		err := r.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		n++
		for _, a := range []uint64{rec.Load0, rec.Load1} {
			if a == 0 {
				continue
			}
			loads++
			track(a, blocks, &minA, &maxA)
		}
		if rec.Dependent {
			deps++
		}
		if rec.Store != 0 {
			stores++
			track(rec.Store, blocks, &minA, &maxA)
		}
		if rec.IsBranch {
			branches++
			if rec.Taken {
				taken++
			}
		}
	}
	if n == 0 {
		log.Fatal("empty trace")
	}
	fmt.Printf("records        %d\n", n)
	fmt.Printf("loads          %d (%.1f%% dependent)\n", loads, pct(deps, loads))
	fmt.Printf("stores         %d\n", stores)
	fmt.Printf("branches       %d (%.1f%% taken)\n", branches, pct(taken, branches))
	fmt.Printf("touched blocks %d (%.1f KB footprint)\n", len(blocks), float64(len(blocks))*64/1024)
	fmt.Printf("address range  %#x .. %#x\n", minA, maxA)
}

func track(a uint64, blocks map[uint64]bool, minA, maxA *uint64) {
	blocks[a/64] = true
	if a < *minA {
		*minA = a
	}
	if a > *maxA {
		*maxA = a
	}
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func cmdConvert(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "", "target format: champsim")
	from := fs.String("from", "", "source format: champsim")
	chaos := fault.Flag(fs)
	fs.Parse(args)
	if err := fault.Apply(*chaos); err != nil {
		log.Fatal(err)
	}
	rest := fs.Args()
	if len(rest) != 2 || (*to == "") == (*from == "") {
		usage()
	}
	in, out := rest[0], rest[1]
	switch {
	case *to == "champsim":
		src, err := trace.OpenFile(in)
		if err != nil {
			log.Fatal(err)
		}
		defer src.Close()
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		w := trace.NewChampSimWriter(f)
		n, err := pump(&ctxReader{ctx: ctx, r: src}, w.Write)
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("converted %d records to ChampSim format\n", n)
	case *from == "champsim":
		src, err := trace.OpenChampSim(in)
		if err != nil {
			log.Fatal(err)
		}
		defer src.Close()
		n, err := trace.WriteAll(out, &ctxReader{ctx: ctx, r: src})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("converted %d records from ChampSim format\n", n)
	default:
		log.Fatalf("unsupported format %q", *to+*from)
	}
}

func pump(src trace.Reader, write func(*trace.Record) error) (uint64, error) {
	var rec trace.Record
	var n uint64
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := write(&rec); err != nil {
			return n, err
		}
		n++
	}
}
