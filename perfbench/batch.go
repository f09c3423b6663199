package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/synth"
)

// batch-synth runs sraa on one synth.Module(batchFuncs, seed) file,
// cold and uncached, back to back for the measured phase. At 10k
// functions range analysis and the frontend dominate the pipeline, and
// range analysis grows superlinearly with module size, so this size
// shows their changes; the memo cache, the sanitizer and the daemon
// take no part.
const (
	batchFuncs   = 10000
	batchJobs    = 2
	minBatchRuns = 3
	// setupReps is how many times a batch run sets up; setup_s is the
	// median.
	setupReps = 3
)

// child is one finished child process.
type child struct {
	stdout string
	wall   time.Duration
	rssMB  float64 // peak resident set (rusage Maxrss)
	cpu    float64 // user and system CPU seconds (rusage)
}

// runChild runs bin to completion. The child is killed if this
// process dies first.
func runChild(bin string, args ...string) (child, error) {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	c := child{stdout: out.String(), wall: time.Since(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	if err != nil {
		return c, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, errb.String())
	}
	return c, nil
}

func runBatch(cfg config) (*result, error) {
	name := fmt.Sprintf("synth-%d", cfg.seed)
	path := filepath.Join(cfg.out, name+".c")
	sraa := filepath.Join(cfg.bin, "sraa")
	jobs := strconv.Itoa(batchJobs)

	// One set-up generates and writes the module, then runs sraa -lt
	// on it, whose LT sets the checks compare after the measured phase.
	// Its time is the CPU time it takes, this process's and the child's.
	var setups []float64
	var src, ltSets string
	for r := 0; r < setupReps; r++ {
		self := selfCPU()
		src = synth.Module(batchFuncs, cfg.seed)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return nil, fmt.Errorf("write input: %w", err)
		}
		ltRun, err := runChild(sraa, "-lt", "-no-report", "-jobs", jobs, path)
		if err != nil {
			return nil, err
		}
		setups = append(setups, selfCPU()-self+ltRun.cpu)
		if r > 0 && ltRun.stdout != ltSets {
			return nil, fmt.Errorf("sraa -lt output differs between runs of the same input")
		}
		ltSets = ltRun.stdout
	}

	// Measured phase: sraa runs back to back until the next run would
	// end past the phase.
	var walls, rss, cpus []float64
	var report string
	attempted, failed := 0, 0
	var firstErr error
	start := time.Now()
	for {
		if n := len(walls); n >= minBatchRuns && time.Since(start).Seconds()+walls[n-1] > cfg.seconds {
			break
		}
		attempted++
		c, err := runChild(sraa, "-cf", "-steens", "-jobs", jobs, path)
		if err == nil && report != "" && c.stdout != report {
			err = fmt.Errorf("sraa report differs between runs of the same input")
		}
		if err != nil {
			failed++
			firstErr = err
			break
		}
		report = c.stdout
		walls = append(walls, c.wall.Seconds())
		rss = append(rss, c.rssMB)
		cpus = append(cpus, c.cpu)
	}

	res := &result{Correct: firstErr == nil, Attempted: attempted, Failed: failed}
	if firstErr != nil {
		return res, firstErr
	}

	// Checks, untimed: both outputs of sraa against the in-process
	// pipeline, the pins and the interpreter oracle.
	aliasGot, err := aliasFromText(report)
	if err != nil {
		res.Correct = false
		return res, err
	}
	got := outcome{Alias: aliasGot, LT: ltFromText(ltSets)}
	items := []item{{name: name, src: src}}
	ref, _, err := runPass(nil, items, batchSpec(), nil, func(int) bool { return true })
	if err != nil {
		res.Correct = false
		return res, err
	}
	if err := checkOutcome("sraa", name, got, ref.outs[0]); err != nil {
		res.Correct = false
		return res, err
	}
	if err := checkPin(cfg.workload, strconv.FormatInt(cfg.seed, 10), got); err != nil {
		res.Correct = false
		return res, err
	}
	kept := ref.kept[0]
	if v := oracle(kept.Module, kept.LT); v > 0 {
		res.Correct = false
		return res, fmt.Errorf("%s: interpreter oracle found %d violations", name, v)
	}
	ref.kept = nil

	wall := median(walls)
	client := clientView{latencyP50MS: wall * 1e3, goodputRPS: float64(len(walls)) / sum(walls), wallS: wall}
	if cfg.trace {
		m, err := tracedPass(cfg, items, batchSpec(), nil, ref, runLayer{client: client})
		if err != nil {
			res.Correct = false
			return res, err
		}
		res.Metrics = m
		return res, nil
	}

	res.Metrics = map[string]metric{
		"cpu_per_request_ms": {median(cpus) * 1e3, "ms"},
		"peak_rss_mb":        {median(rss), "MB"},
		"success_ratio":      {float64(attempted-failed) / float64(attempted), "ratio"},
		"setup_s":            {median(setups), "s"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: batch-synth %d sraa runs: CPU %.3f s, wall %.3f s (medians)\n", len(walls), median(cpus), wall)
	return res, nil
}

// selfCPU is the user and system CPU time this process has used, in
// seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// checkOutcome compares a child's answer with the in-process one.
func checkOutcome(who, what string, got, want outcome) error {
	if got != want {
		return fmt.Errorf("%s answer for %s differs from the in-process pipeline:\n  %s %+v\n  in-process %+v", who, what, who, got, want)
	}
	return nil
}
