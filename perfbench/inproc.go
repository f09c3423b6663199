package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alias"
	"repro/internal/andersen"
	"repro/internal/core"
	"repro/internal/essa"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/sanitize"
	"repro/internal/ssa"
	"repro/internal/steens"
)

// item is one analysis input: a named mini-C program.
type item struct{ name, src string }

// pipeSpec says how the production path runs an item. It mirrors the
// child processes: batchSpec is sraa with the flags runBatch passes,
// serveSpec is what sraad's defaults give every request.
type pipeSpec struct {
	cfg      harness.Config // Cache is set per pass
	sanitize bool
	batch    bool
}

func batchSpec() pipeSpec {
	return pipeSpec{cfg: harness.Config{WithCF: true, WithST: true, Jobs: batchJobs}, batch: true}
}

func serveSpec() pipeSpec {
	return pipeSpec{
		cfg: harness.Config{
			Timeout: 5 * time.Second, MaxSteps: 2_000_000,
			Jobs: 1, CacheBudgeted: true,
		},
		sanitize: true,
	}
}

// analyses is the alias-analysis list sraa and sraad evaluate.
func analyses(m *ir.Module, lt *core.Result, cf *andersen.Analysis, st *steens.Analysis) []alias.Analysis {
	ba := alias.NewBasic(m)
	sr := alias.NewSRAA(lt)
	out := []alias.Analysis{ba, sr, alias.NewChain(ba, sr)}
	if st != nil {
		out = append(out, st)
	}
	if cf != nil {
		out = append(out, cf, alias.NewChain(ba, cf))
	}
	return out
}

// passOut is what one pass of the production harness calls produced.
type passOut struct {
	outs    []outcome
	perItem []time.Duration // wall time of each item's harness calls
	// Counters summed over items.
	instrs, queries, checks int
	pops, constraints       int
	timings                 map[string]time.Duration // harness Report.Timings by stage
	hits, misses            int64                    // memo lookups during the pass
	// kept holds the analyzed module and LT result of the items keep
	// selected, for the interpreter oracle.
	kept map[int]*harness.Result
}

// runPass runs items through the production harness calls, Compile,
// Analyze, Result.Evaluate and (serve) Result.Sanitize, in the order
// sraad answers a request. With a recorder each call is a span, and
// every item is followed by its replay.
func runPass(rec *recorder, items []item, spec pipeSpec, cache *harness.Cache, keep func(int) bool) (*passOut, *replayTotals, error) {
	po := &passOut{timings: map[string]time.Duration{}, kept: map[int]*harness.Result{}}
	var rt *replayTotals
	if rec != nil {
		rt = &replayTotals{}
	}
	var before harness.CacheStats
	if cache != nil {
		before = cache.Stats()
	}
	for i, it := range items {
		cfg := spec.cfg
		cfg.Cache = cache
		p := harness.New(cfg)
		var (
			m      *ir.Module
			res    *harness.Result
			cerr   error
			rep    *alias.Report
			sum    sanitize.Summary
			cID    int
			aID    int
			wallSt = time.Now()
		)
		root := rec.begin("request", 0, i+1, false)
		cID = rec.do("harness.compile", root, i+1, false, func() { m, cerr = p.Compile(it.name, it.src) })
		if cerr != nil {
			return nil, nil, fmt.Errorf("%s: compile: %w", it.name, cerr)
		}
		aID = rec.do("harness.analyze", root, i+1, false, func() { res, _ = p.Analyze(m) })
		rec.do("alias.eval", root, i+1, false, func() { rep = res.Evaluate(analyses(m, res.LT, res.CF, res.ST)...) })
		if spec.sanitize {
			rec.do("sanitize.check", root, i+1, false, func() { sum = res.Sanitize().Summarize() })
		}
		rec.end(root)
		po.perItem = append(po.perItem, time.Since(wallSt))
		if !p.Report().Ok() {
			return nil, nil, fmt.Errorf("%s: in-process pipeline degraded:\n%s", it.name, p.Report())
		}

		out := outcome{Alias: aliasFromReport(rep), LT: ltFromResult(m, res.LT)}
		if spec.sanitize {
			out.Sanitize = sanitizeKey(sum)
		}
		po.outs = append(po.outs, out)
		for _, f := range m.Funcs {
			f.Instrs(func(*ir.Instr) bool { po.instrs++; return true })
		}
		po.queries += rep.PerAnalysis["BA"].Queries
		po.checks += sum.Checks
		po.pops += res.LT.Stats.Pops
		po.constraints += res.LT.Stats.Constraints
		for _, t := range p.Report().Timings {
			po.timings[t.Stage] += t.D
		}
		if keep != nil && keep(i) {
			po.kept[i] = res
		}

		if rec != nil {
			res, m, rep = nil, nil, nil
			if len(items) == 1 {
				runtime.GC() // replay a large module on a heap like the production call's
			}
			rout, err := replay(rec, i+1, cID, aID, it, spec, rt)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: replay: %w", it.name, err)
			}
			if rout != out {
				return nil, nil, fmt.Errorf("%s: replay drifted from harness.Pipeline:\n  pipeline %+v\n  replay   %+v", it.name, out, rout)
			}
		}
	}
	if cache != nil {
		after := cache.Stats()
		po.hits, po.misses = after.Hits-before.Hits, after.Misses-before.Misses
	}
	return po, rt, nil
}

// replayTotals accumulates the replay's work counts.
type replayTotals struct {
	sigmas, splits atomic.Int64
}

// eachFunc applies fn to every function over jobs workers, as the
// harness fans out its per-function stages.
func eachFunc(m *ir.Module, jobs int, fn func(*ir.Func)) {
	if jobs = min(jobs, len(m.Funcs)); jobs <= 1 {
		for _, f := range m.Funcs {
			fn(f)
		}
		return
	}
	ch := make(chan *ir.Func)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range ch {
				fn(f)
			}
		}()
	}
	for _, f := range m.Funcs {
		ch <- f
	}
	close(ch)
	wg.Wait()
}

// replay reruns the stages inside Compile and Analyze through each
// layer's exported entry point, in the order the harness uses, and
// derives the same outcome the production calls did. Frontend spans
// are children of the harness.compile span, analysis spans children of
// harness.analyze. On the serve workloads the production LT solve goes
// through the memo cache, whose key the harness does not export, so
// the replayed unmemoized solve is recorded outside the analyze span
// and core.lt_ms is derived instead (see layerMetrics).
func replay(rec *recorder, req, compileID, analyzeID int, it item, spec pipeSpec, rt *replayTotals) (outcome, error) {
	ctx := context.Background()
	jobs := max(spec.cfg.Jobs, 1)
	var (
		prog   *minic.Program
		m      *ir.Module
		err    error
		pre    *rangeanal.Result
		ranges *rangeanal.Result
		lt     *core.Result
		cf     *andersen.Analysis
		st     *steens.Analysis
		verrMu sync.Mutex
		verr   error
	)
	rec.do("minic.parse", compileID, req, true, func() { prog, err = minic.ParseProgram(it.src) })
	if err != nil {
		return outcome{}, err
	}
	rec.do("minic.lower", compileID, req, true, func() { m, err = minic.LowerProgram(it.name, prog) })
	if err != nil {
		return outcome{}, err
	}
	prog = nil
	rec.do("ssa.mem2reg", compileID, req, true, func() {
		eachFunc(m, jobs, func(f *ir.Func) {
			ssa.Promote(f)
			if err := ssa.VerifySSA(f); err != nil {
				verrMu.Lock()
				verr = err
				verrMu.Unlock()
			}
		})
	})
	if verr != nil {
		return outcome{}, verr
	}
	rec.do("essa.sigma", analyzeID, req, true, func() {
		eachFunc(m, jobs, func(f *ir.Func) { rt.sigmas.Add(int64(essa.InsertSigmas(f))) })
	})
	rec.do("rangeanal.pre", analyzeID, req, true, func() { pre = rangeanal.AnalyzeCtx(ctx, m, rangeanal.Opts{}) })
	rec.do("essa.split", analyzeID, req, true, func() {
		eachFunc(m, jobs, func(f *ir.Func) { rt.splits.Add(int64(essa.SplitSubtractions(f, pre))) })
	})
	pre = nil
	rec.do("rangeanal.final", analyzeID, req, true, func() { ranges = rangeanal.AnalyzeCtx(ctx, m, rangeanal.Opts{}) })
	ltParent := analyzeID
	if !spec.batch {
		ltParent = 0
	}
	rec.do("core.lt", ltParent, req, true, func() { lt = core.AnalyzeCtx(ctx, m, ranges, core.Options{Workers: jobs}) })
	if spec.cfg.WithCF {
		rec.do("andersen.cf", analyzeID, req, true, func() { cf = andersen.AnalyzeCtx(ctx, m, andersen.Opts{}) })
	}
	if spec.cfg.WithST {
		rec.do("steens.st", analyzeID, req, true, func() { st = steens.AnalyzeCtx(ctx, m, steens.Opts{}) })
	}

	out := outcome{
		Alias: aliasFromReport(alias.Evaluate(m, analyses(m, lt, cf, st)...)),
		LT:    ltFromResult(m, lt),
	}
	if spec.sanitize {
		out.Sanitize = sanitizeKey(sanitize.AnalyzeCtx(ctx, m, ranges, lt, sanitize.Options{Workers: jobs}).Summarize())
	}
	return out, nil
}

// replayStages maps harness Report.Timings stage names to the replay
// span timing the same stage.
var replayStages = map[string]string{
	harness.StageParse:     "minic.parse",
	harness.StageLower:     "minic.lower",
	harness.StageMem2Reg:   "ssa.mem2reg",
	harness.StageESSA:      "essa.sigma",
	harness.StageRangesPre: "rangeanal.pre",
	harness.StageSplit:     "essa.split",
	harness.StageRanges:    "rangeanal.final",
	harness.StageAndersen:  "andersen.cf",
	harness.StageSteens:    "steens.st",
}

// Fidelity bounds. A stage the harness timed at minStageCheck or more
// must take between 1/stageRatio and stageRatio times as long in the
// replay; on batch-synth the replayed analysis stages must account for
// the harness.analyze span within analyzeBound of it.
const (
	minStageCheck = 50 * time.Millisecond
	stageRatio    = 2.5
	analyzeBound  = 0.4
)

// checkTimings cross-checks the replay's stage spans against the
// stage timings the harness itself recorded in the same pass.
func checkTimings(rec *recorder, po *passOut, batch bool) error {
	for stage, name := range replayStages {
		h, r := po.timings[stage], rec.total(name)
		if h < minStageCheck {
			continue
		}
		if ratio := float64(r) / float64(h); ratio > stageRatio || ratio < 1/stageRatio {
			return fmt.Errorf("replay stage %s took %v, the harness's %s stage %v", name, r, stage, h)
		}
	}
	if batch {
		if h, r := po.timings[harness.StageLessThan], rec.total("core.lt"); h >= minStageCheck {
			if ratio := float64(r) / float64(h); ratio > stageRatio || ratio < 1/stageRatio {
				return fmt.Errorf("replay stage core.lt took %v, the harness's lessthan stage %v", r, h)
			}
		}
		parent := rec.total("harness.analyze")
		var kids time.Duration
		for _, n := range analyzeChildren(true) {
			kids += rec.total(n)
		}
		if d := float64(kids-parent) / float64(parent); d > analyzeBound || d < -analyzeBound {
			return fmt.Errorf("replayed analysis stages sum to %v, harness.analyze took %v", kids, parent)
		}
	}
	return nil
}

// analyzeChildren names the replayed spans under harness.analyze.
func analyzeChildren(batch bool) []string {
	kids := []string{"essa.sigma", "rangeanal.pre", "essa.split", "rangeanal.final"}
	if batch {
		kids = append(kids, "core.lt", "andersen.cf", "steens.st")
	}
	return kids
}
