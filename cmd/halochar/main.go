// Command halochar characterizes library cells against the analog reference
// engine and prints the fitted IDDM coefficients (eq. 1-3 of the paper),
// the way the authors fitted against HSPICE.
//
// Usage:
//
//	halochar [-cells INV,NAND2,...] [-dt 0.0005]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"halotis/internal/buildinfo"
	"halotis/internal/cellib"
	"halotis/internal/charlib"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, characterizes each requested cell
// and prints its fit to stdout. It returns the exit status: 0 on success,
// 1 when a fit fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("halochar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cells := fs.String("cells", "INV,NAND2,NOR2", "comma-separated cell kinds (primitive inverting kinds only)")
	dt := fs.Float64("dt", 0.0005, "analog integration step, ns")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.String("halochar"))
		return 0
	}

	lib := cellib.Default06()
	cfg := charlib.Config{Dt: *dt}

	var kinds []cellib.Kind
	for _, name := range strings.Split(*cells, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := cellib.KindByName(name)
		if !ok {
			fmt.Fprintf(stderr, "halochar: unknown cell kind %q\n", name)
			return 2
		}
		kinds = append(kinds, k)
	}

	for _, k := range kinds {
		cf, err := charlib.Characterize(lib, k, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "halochar: %s: %v\n", k, err)
			return 1
		}
		fmt.Fprintf(stdout, "cell %s (%d analog runs)\n", k, cf.Runs)
		for pin, pf := range cf.Pins {
			for _, dir := range []struct {
				name string
				ef   charlib.EdgeFit
			}{{"rise", pf.Rise}, {"fall", pf.Fall}} {
				p := dir.ef.Params
				fmt.Fprintf(stdout, "  pin %d %s: tp0 = %.4f + %.3f*CL + %.3f*tin   slew = %.4f + %.3f*CL + %.3f*tin\n",
					pin, dir.name, p.D0, p.D1, p.D2, p.S0, p.S1, p.S2)
				fmt.Fprintf(stdout, "             degradation: A=%.4f B=%.3f C=%.3f  (delayRMS %.4f, %d pulse pts)\n",
					p.A, p.B, p.C, dir.ef.DelayRMS, dir.ef.DegradationPoints)
				var loads []float64
				for cl := range dir.ef.TauAtLoads {
					loads = append(loads, cl)
				}
				sort.Float64s(loads)
				for _, cl := range loads {
					fmt.Fprintf(stdout, "             tau(CL=%.3fpF) = %.4f ns\n", cl, dir.ef.TauAtLoads[cl])
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
