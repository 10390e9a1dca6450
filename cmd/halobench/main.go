// Command halobench regenerates the tables and figures of the HALOTIS
// paper's evaluation section (DATE 2001), plus the runs the repository
// benchmark (perfbench, BENCHMARK.json) does not do. Every mode prints
// text; none writes a perf record.
//
// Usage:
//
//	halobench [-exp all|fig1|fig3|fig5|fig6|fig7|table1|table2|power|ddmcurve|scale|partition|serve|cluster|chaos|obs]
//	          [-fast]
//	          [-scaleruns N] [-scalesizes 1000,3000,10000]
//	          [-partruns N] [-partsizes 100000,250000] [-partcounts 1,2,4,8] [-partfam NAME]
//	          [-serveruns N] [-serveconc 1,2,4,8]
//	          [-clusterruns N] [-clusterclients N] [-clusterreplicas 1,3]
//	          [-chaosdur DUR] [-chaosclients N]
//	          [-obsruns N] [-version]
//
// -exp all runs the paper's figures and tables; -fast uses a coarser
// analog integration step for Table 2 (the shape of the comparison —
// orders of magnitude — is unaffected). The other modes:
//
//   - scale: kernel ns/event by circuit size over the scalable families
//     (adder chains, CSA trees, multipliers, random DAGs), DDM vs CDM.
//   - partition: partition count against circuit size (100k gates and
//     up); every partitioned configuration must be bit-identical to the
//     sequential baseline before it is timed, so this is a large-circuit
//     differential gate. It reports measured and critical-path-model
//     speedup.
//   - serve: concurrent clients and batch fan-out against an in-process
//     halotisd: requests/sec, p50/p99 latency and cache hit rates.
//   - cluster: aggregate unique-request throughput at 1 vs N replicas.
//   - chaos: the resilience gate — a fault-injection soak of three
//     replicas behind a router, failing on any divergent report, an
//     unbounded p99, or a resilience mechanism that never fired.
//   - obs: the observability gate — the overhead of tracing, profiling
//     and the always-on fleet-health surface, plus breach detection and
//     pinned exemplars (see obs.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"halotis/internal/buildinfo"
	"halotis/internal/cellib"
	"halotis/internal/paper"
)

// options holds the flag values the experiments read.
type options struct {
	fast                                        bool
	scaleRuns, partRuns, serveRuns, clusterRuns int
	clusterClients, chaosClients, obsRuns       int
	scaleSizes, partSizes, partCounts, partFam  string
	serveConc, clusterReplicas                  string
	chaosDur                                    time.Duration
}

// paperExperiments are what -exp all runs: the paper's figures and tables.
var paperExperiments = []string{"fig1", "fig3", "fig5", "fig6", "fig7", "table1", "table2", "power", "ddmcurve"}

// experiments maps each -exp name to the function that runs it and
// returns its report.
var experiments = map[string]func(*cellib.Library, *options) (string, error){
	"fig1": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.Fig1(lib)
		return r.Text, err
	},
	"fig3": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.Fig3(lib)
		return r.Text, err
	},
	"fig5": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.Fig5(lib)
		return r.Text, err
	},
	"fig6": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.Fig6(lib)
		return r.Text, err
	},
	"fig7": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.Fig7(lib)
		return r.Text, err
	},
	"table1": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.Table1(lib)
		return r.Text, err
	},
	"table2": func(lib *cellib.Library, o *options) (string, error) {
		cfg := paper.Table2Config{}
		if o.fast {
			cfg.AnalogDt = 0.005
		}
		r, err := paper.Table2(lib, cfg)
		return r.Text, err
	},
	"power": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.PowerExperiment(lib)
		return r.Text, err
	},
	"ddmcurve": func(lib *cellib.Library, _ *options) (string, error) {
		r, err := paper.DDMCurve(lib)
		return r.Text, err
	},
	"scale": func(lib *cellib.Library, o *options) (string, error) {
		return scaleExperiment(lib, o.scaleSizes, o.scaleRuns)
	},
	"partition": func(lib *cellib.Library, o *options) (string, error) {
		return partitionExperiment(lib, o.partSizes, o.partCounts, o.partFam, o.partRuns)
	},
	"serve": func(lib *cellib.Library, o *options) (string, error) {
		return serveExperiment(lib, o.serveConc, o.serveRuns)
	},
	"cluster": func(lib *cellib.Library, o *options) (string, error) {
		return clusterExperiment(lib, o.clusterReplicas, o.clusterRuns, o.clusterClients)
	},
	"chaos": func(lib *cellib.Library, o *options) (string, error) {
		return chaosExperiment(lib, o.chaosDur, o.chaosClients)
	},
	"obs": func(lib *cellib.Library, o *options) (string, error) {
		return obsExperiment(lib, o.obsRuns)
	},
}

// plan resolves an -exp value to the experiments it runs.
func plan(exp string) ([]string, error) {
	if exp == "all" {
		return paperExperiments, nil
	}
	if _, ok := experiments[exp]; !ok {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return []string{exp}, nil
}

// run runs what exp names and prints each report to w.
func run(w io.Writer, exp string, o *options) error {
	names, err := plan(exp)
	if err != nil {
		return err
	}
	lib := cellib.Default06()
	for _, n := range names {
		text, err := experiments[n](lib, o)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		fmt.Fprintln(w, text)
	}
	return nil
}

func main() {
	var o options
	exp := flag.String("exp", "all", "experiment: all, fig1, fig3, fig5, fig6, fig7, table1, table2, power, ddmcurve, scale, partition, serve, cluster, chaos, obs")
	flag.BoolVar(&o.fast, "fast", false, "coarser analog step for table2")
	flag.IntVar(&o.scaleRuns, "scaleruns", 3, "scale: iterations per (family, size, model) point")
	flag.StringVar(&o.scaleSizes, "scalesizes", "1000,3000,10000", "scale: comma-separated target gate counts")
	flag.IntVar(&o.serveRuns, "serveruns", 200, "serve: requests per concurrent client")
	flag.StringVar(&o.serveConc, "serveconc", "1,2,4,8", "serve: comma-separated concurrent client counts")
	flag.IntVar(&o.clusterRuns, "clusterruns", 600, "cluster: unique requests per sweep")
	flag.IntVar(&o.clusterClients, "clusterclients", 8, "cluster: concurrent clients per sweep")
	flag.StringVar(&o.clusterReplicas, "clusterreplicas", "1,3", "cluster: comma-separated replica counts to sweep")
	flag.IntVar(&o.partRuns, "partruns", 2, "partition: timed iterations per (family, size, count) point")
	flag.StringVar(&o.partSizes, "partsizes", "100000,250000", "partition: comma-separated target gate counts")
	flag.StringVar(&o.partCounts, "partcounts", "1,2,4,8", "partition: comma-separated partition counts (include 1 for the baseline)")
	flag.StringVar(&o.partFam, "partfam", "", "partition: restrict to one scalable family (default all)")
	flag.DurationVar(&o.chaosDur, "chaosdur", 8*time.Second, "chaos: soak duration")
	flag.IntVar(&o.chaosClients, "chaosclients", 6, "chaos: concurrent clients during the soak")
	flag.IntVar(&o.obsRuns, "obsruns", 300, "obs: requests per round and mode")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String("halobench"))
		return
	}
	if err := run(os.Stdout, *exp, &o); err != nil {
		fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
		os.Exit(1)
	}
}
