// Command figures regenerates the paper's evaluation figures from
// the simulation (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	figures -fig all -scale 1
//	figures -fig 8 -scale 3 -seed 7
//	figures -fig 11 -csv out/
//
// Figure IDs: 4, 6, 7, 8, 9, 10, 11, 13, headline, appA, appD, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"minkowski/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (4,6,7,8,9,10,11,13,headline,appA,appD,ablations,chaosavail,all)")
	scale := flag.Int("scale", 1, "fidelity scale: 1 quick, 3 paper-like fleet/duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	csvDir := flag.String("csv", "", "directory to write CSV series into (optional)")
	cpuProfile := flag.String("profile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	solveWorkers := flag.Int("solve-workers", 0, "solver fan-out width (0 = one worker per core); results are byte-identical at any setting")
	coldSolve := flag.Bool("cold-solve", false, "disable warm-started solving (measure the incremental re-solve's contribution)")
	obsPath := flag.String("obs", "", "run the canonical scenario and write the observability export (metrics snapshot + solve-cycle span trees) to this file instead of regenerating figures")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	o := experiments.Options{Seed: *seed, Scale: *scale, SolveWorkers: *solveWorkers, ColdSolve: *coldSolve}
	if *obsPath != "" {
		b, err := experiments.ObsExport(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*obsPath, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote observability export to %s\n", *obsPath)
		return
	}
	var results []*experiments.Result
	switch strings.ToLower(*fig) {
	case "all":
		results = experiments.All(o)
	case "4", "fig04":
		results = append(results, experiments.Fig04(o))
	case "6", "fig06":
		results = append(results, experiments.Fig06(o))
	case "7", "fig07":
		results = append(results, experiments.Fig07(o))
	case "8", "fig08":
		results = append(results, experiments.Fig08(o))
	case "9", "fig09":
		results = append(results, experiments.Fig09(o))
	case "10", "fig10":
		results = append(results, experiments.Fig10(o))
	case "11", "fig11":
		results = append(results, experiments.Fig11(o))
	case "13", "fig13":
		results = append(results, experiments.Fig13(o))
	case "headline":
		results = append(results, experiments.Headline(o))
	case "appa":
		results = append(results, experiments.AppA(o))
	case "appd":
		results = append(results, experiments.AppD(o))
	case "ablations":
		results = experiments.Ablations(o)
	case "retry", "abl-retry":
		results = append(results, experiments.AblationRetryPolicy(o))
	case "chaosavail":
		results = append(results, experiments.ChaosAvail(o))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	for _, r := range results {
		fmt.Println(r)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func writeCSVs(dir string, r *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(r.CSV))
	for name := range r.CSV {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := r.CSV[name]
		var b strings.Builder
		for _, rec := range rows {
			b.WriteString(strings.Join(rec, ","))
			b.WriteByte('\n')
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, name))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	return nil
}
