// Command perfbench is the repository's benchmark: seeded workloads
// (batch and point, gated by BENCHMARK.json; churn, run by hand)
// driven through the public pbist APIs, every answer checked against a
// plain Go map, end-to-end
// metrics from an untraced run and per-layer metrics from a separate
// traced run. See README.md in this directory for what each workload
// and metric is for.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line
// before it stamps the environment, the parameters and the sample
// count behind every metric. The exit code is 0 only when every
// answer was correct.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", allWorkloads))
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its span file to")
	inject := fs.Int64("inject-wrong-answer", 0, "corrupt the answer of this checked call (1-based) to show the oracle catches it; 0 = off")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	p, err := workloadParams(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	return execute(p, *trace == 1, *out, *inject, stdout, stderr)
}

// execute runs one workload and prints its result; it returns the exit
// code.
func execute(p params, traced bool, outDir string, injectAt int64, stdout, stderr io.Writer) int {
	cfg := newRunCfg(stderr, injectAt)
	m := metricSet{}
	var layers metricSet
	var tracers []*tracer
	var err error
	if p.Workload == "batch" {
		layers, tracers, err = batchWorkload(p, cfg, traced, m)
	} else {
		layers, tracers, err = servingWorkload(p, cfg, traced, m)
	}
	cfg.attempted.Add(1) // the final Items() comparison
	if err != nil {
		cfg.fail(err)
	}
	attempted, failed := cfg.attempted.Load(), cfg.failed.Load()

	stamp := map[string]any{"env": envStamp(p, traced)}
	defs, set := endToEnd, m
	if traced {
		defs, set = perLayer, layers
		set.set("error_rate", float64(failed)/float64(attempted), int(attempted))
		stamp["not_applicable"] = notApplicable(p.Workload)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", p.Workload, p.Seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := writeSpans(path, stamp["env"], tracers); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stamp["spans"] = path
	}
	if err := writeResult(stdout, stamp, defs, set, attempted, failed, failed == 0); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// envStamp records what a result depends on besides the code: the
// machine, the toolchain, the commit and every workload parameter.
func envStamp(p params, traced bool) map[string]any {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"vcs_revision": rev,
		"vcs_modified": modified,
		"seed":         p.Seed,
		"traced":       traced,
		"params":       p,
	}
}
