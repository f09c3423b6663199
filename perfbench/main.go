// Command perfbench is the repository benchmark. It drives the built
// sraa and sraad binaries as child processes on inputs generated from
// a seed, checks their outputs, and prints one JSON result line. With
// --trace 1 it also replays the same inputs in process, timing the
// calls into each layer's exported entry points, and reports the
// per-layer breakdown instead of the end-to-end metrics.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload batch-synth --seed 1 --seconds 25 --trace 0
//
// Exit status: 0 with a result line; 1 when an output is wrong, the
// replay drifts from the production pipeline, or a child misbehaves
// (the result line, if any, says correct=false); 2 on bad usage or a
// missing build. A serve run whose load generator ran late still
// prints its result, and says on standard error that it is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the sraa and sraad binaries
	out      string // directory for generated inputs and the trace file
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "batch-synth, serve-warm or serve-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.IntVar(&seconds, "seconds", 25, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 replays the inputs in process and reports per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", filepath.Join(".bench_build", "bin"), "directory with the built sraa and sraad")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for generated inputs and trace files")
	pinSeeds := flag.Int("write-pins", 0, "regenerate pins.json for seeds 0..n-1 from the in-process pipeline, then exit")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1

	if *pinSeeds > 0 {
		if err := writePins(*pinSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	for _, b := range []string{"sraa", "sraad"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s not built: %v\n", b, err)
			os.Exit(2)
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	var res *result
	var err error
	switch cfg.workload {
	case "batch-synth":
		res, err = runBatch(cfg)
	case "serve-warm":
		res, err = runServe(cfg, false)
	case "serve-cold":
		res, err = runServe(cfg, true)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil || res == nil || !res.Correct {
		os.Exit(1)
	}
}

// quantile interpolates the q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// conns is the load generator's connection budget: one per CPU, from
// this one process.
func conns() int { return runtime.NumCPU() }
