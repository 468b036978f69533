// Command elpsim regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	elpsim [-metrics] [-trace file] list            list the available experiments
//	elpsim [-metrics] [-trace file] all             regenerate every table and figure
//	elpsim [-metrics] [-trace file] <id> [<id>...]  regenerate specific experiments
//	                                                (table1, fig8, fig10, fig11, fig12,
//	                                                 fig13, fig14, table2, table3)
//
// -metrics prints the process-wide observability snapshot (engine execution
// counters, scheduler-memo hit rate) after the run;
// -trace streams Chrome trace_event spans to the given file (load it in
// chrome://tracing or Perfetto).
package main

import (
	"errors"
	"fmt"
	"os"

	elp2im "repro"
	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elpsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var showMetrics bool
	var tracePath string
	rest := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-metrics", "--metrics":
			showMetrics = true
		case "-trace", "--trace":
			i++
			if i >= len(args) {
				return errors.New("-trace needs an output file path")
			}
			tracePath = args[i]
		default:
			rest = append(rest, args[i])
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		tr := elp2im.NewJSONLTracer(f)
		elp2im.SetGlobalTracer(tr)
		defer func() {
			elp2im.SetGlobalTracer(nil)
			tr.Close()
			f.Close()
			fmt.Fprintf(os.Stderr, "elpsim: wrote %d trace spans to %s\n", tr.Spans(), tracePath)
		}()
	}
	if showMetrics {
		defer func() {
			fmt.Println("\n==== observability snapshot (process-wide) ====")
			fmt.Print(elp2im.GlobalSnapshot().Text())
		}()
	}
	return dispatch(rest)
}

func dispatch(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		for _, id := range exp.IDs() {
			e, _ := exp.Lookup(id)
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\nCSV-capable (elpsim -csv <id>): %v\n", exp.CSVIDs())
		return nil
	case "all":
		return exp.RunAll(os.Stdout)
	case "help", "-h", "--help":
		usage()
		return nil
	case "-csv", "--csv":
		if len(args) < 2 {
			return fmt.Errorf("-csv needs an experiment id (one of %v)", exp.CSVIDs())
		}
		for _, id := range args[1:] {
			ok, err := exp.CSV(id, os.Stdout)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("experiment %q has no CSV form (one of %v)", id, exp.CSVIDs())
			}
		}
		return nil
	}
	for _, id := range args {
		e, ok := exp.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: elpsim list)", id)
		}
		if err := e.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Println(`elpsim — regenerate the ELP2IM (HPCA 2020) evaluation
usage:
  elpsim list            list the available experiments
  elpsim all             regenerate every table and figure
  elpsim <id> [<id>...]  regenerate specific experiments
  elpsim -csv <id>       emit an experiment's data as CSV
flags (anywhere on the command line):
  -metrics               print the process-wide metrics snapshot after the run
  -trace <file>          stream Chrome trace_event spans to <file>`)
}
