// Command pintereport regenerates the PInTE paper's tables and figures
// from the bundled simulator.
//
// Usage:
//
//	pintereport -exp table2 -scale small
//	pintereport -exp all -scale tiny -csv out/
//
// Experiments: table1, fig1, fig2, fig3, table2, fig5, fig6, fig7, fig8,
// fig9, fig10, fig11, or "all". Scales: tiny, small, full.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pintereport: ")

	var (
		expID    = flag.String("exp", "all", "experiment id or \"all\"")
		scale    = flag.String("scale", "small", "scale: tiny, small or full")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		listOnly = flag.Bool("list", false, "list experiment ids and exit")
	)
	chaos := fault.Flag(nil)
	flag.Parse()

	if err := fault.Apply(*chaos); err != nil {
		log.Fatal(err)
	}
	if *listOnly {
		for _, id := range expt.IDs() {
			fmt.Println(id)
		}
		return
	}

	sc, err := expt.ByName(*scale)
	if err != nil {
		log.Fatal(err)
	}
	sc.Workers = *workers

	// SIGINT/SIGTERM cancels the in-flight experiment campaign between
	// simulations instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := expt.NewRunner(sc).WithContext(ctx)

	ids := []string{*expID}
	if *expID == "all" {
		ids = expt.IDs()
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := expt.RunExperiment(id, runner)
		if err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				log.Fatalf("%s: interrupted; completed experiments were already printed", id)
			}
			log.Fatalf("%s: %v", id, err)
		}
		if err := report.RenderAll(os.Stdout, tables); err != nil {
			log.Fatalf("%s: rendering: %v", id, err)
		}
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, tables); err != nil {
				log.Fatalf("%s: writing CSV: %v", id, err)
			}
		}
	}
}

func writeCSVs(dir string, tables []*report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		name := strings.ReplaceAll(t.ID, "/", "_") + ".csv"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
