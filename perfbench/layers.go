package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/harness"
)

// runLayer holds the per-layer numbers only the production phases can
// give: server handler time against client latency, the server's shed
// and degraded answers, and what the load generator saw.
type runLayer struct {
	handlerMS, waitMS float64 // means over steady-phase responses
	shed, degraded    int     // over every phase of the run
	latenessP99MS     float64
	client            clientView
}

// clientView is the wall-clock view from the load generator's side.
// The end-to-end metrics count CPU time instead, because wall time on
// a shared host follows the time the hypervisor steals (README.md,
// Steadiness).
type clientView struct {
	latencyP50MS float64 // sraa run, or steady-phase answer from its due time
	goodputRPS   float64 // sraa runs per second, or overload answers in time per second
	wallS        float64 // sraa run, or one closed-loop pass
}

// layerMetrics builds the per-layer result from a traced pass over n
// items. Times, allocations and work counts are per item (one sraa run
// on batch-synth, one request on the serve workloads).
func layerMetrics(rec *recorder, po *passOut, rt *replayTotals, n int, batch bool, sl runLayer, untracedMS, overheadPct float64) map[string]metric {
	per := float64(n)
	ms := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += rec.total(name)
		}
		return d.Seconds() * 1e3 / per
	}
	mb := func(names ...string) float64 {
		var a uint64
		for _, name := range names {
			a += rec.alloc(name)
		}
		return float64(a) / (1 << 20) / per
	}
	count := func(c int64) float64 { return float64(c) / per }

	// With the memo cache in the path (serve) the LT solve is the part
	// of Analyze its replayed e-SSA and range children do not cover.
	ltMS := ms("core.lt")
	if !batch {
		ltMS = ms("harness.analyze") - ms(analyzeChildren(false)...)
	}
	ratio := 0.0
	if lookups := po.hits + po.misses; lookups > 0 {
		ratio = float64(po.hits) / float64(lookups)
	}
	selfMS := (rec.self("harness.compile") + rec.self("harness.analyze")).Seconds() * 1e3 / per
	if !batch {
		selfMS = rec.self("harness.compile").Seconds() * 1e3 / per
	}
	serveSelf := 0.0
	if !batch {
		serveSelf = sl.handlerMS - untracedMS
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	put("minic.parse_ms", ms("minic.parse"), "ms")
	put("minic.lower_ms", ms("minic.lower"), "ms")
	put("minic.alloc_mb", mb("minic.parse", "minic.lower"), "MB")
	put("minic.instrs", count(int64(po.instrs)), "count")
	put("ssa.mem2reg_ms", ms("ssa.mem2reg"), "ms")
	put("essa.sigma_ms", ms("essa.sigma"), "ms")
	put("essa.sigmas", count(rt.sigmas.Load()), "count")
	put("essa.split_ms", ms("essa.split"), "ms")
	put("essa.splits", count(rt.splits.Load()), "count")
	put("rangeanal.pre_ms", ms("rangeanal.pre"), "ms")
	put("rangeanal.final_ms", ms("rangeanal.final"), "ms")
	put("rangeanal.alloc_mb", mb("rangeanal.pre", "rangeanal.final"), "MB")
	put("core.lt_ms", ltMS, "ms")
	put("core.pops", count(int64(po.pops)), "count")
	put("core.constraints", count(int64(po.constraints)), "count")
	put("core.memo_hits", count(po.hits), "count")
	put("core.memo_misses", count(po.misses), "count")
	put("core.memo_hit_ratio", ratio, "ratio")
	put("andersen.cf_ms", ms("andersen.cf"), "ms")
	put("andersen.alloc_mb", mb("andersen.cf"), "MB")
	put("steens.st_ms", ms("steens.st"), "ms")
	put("alias.eval_ms", ms("alias.eval"), "ms")
	put("alias.queries", count(int64(po.queries)), "count")
	put("sanitize.check_ms", ms("sanitize.check"), "ms")
	put("sanitize.checks", count(int64(po.checks)), "count")
	put("harness.compile_ms", ms("harness.compile"), "ms")
	put("harness.analyze_ms", ms("harness.analyze"), "ms")
	put("harness.self_ms", selfMS, "ms")
	put("serve.handler_ms", sl.handlerMS, "ms")
	put("serve.self_ms", serveSelf, "ms")
	put("serve.wait_ms", sl.waitMS, "ms")
	put("serve.shed", float64(sl.shed), "count")
	put("serve.degraded", float64(sl.degraded), "count")
	put("loadgen.lateness_p99_ms", sl.latenessP99MS, "ms")
	put("loadgen.latency_p50_ms", sl.client.latencyP50MS, "ms")
	put("loadgen.goodput_rps", sl.client.goodputRPS, "1/s")
	put("loadgen.wall_s", sl.client.wallS, "s")
	put("trace.overhead_pct", overheadPct, "%")
	return m
}

// tracedPass runs the traced pass with its replay over items, checks
// the replay against the production calls, writes the Chrome trace,
// and returns the per-layer metrics. untraced is the untraced pass
// over the same items, with a cache in the same state; the difference
// between the two is the tracing overhead.
func tracedPass(cfg config, items []item, spec pipeSpec, cache *harness.Cache, untraced *passOut, sl runLayer) (map[string]metric, error) {
	rec := newRecorder()
	po, rt, err := runPass(rec, items, spec, cache, nil)
	if err != nil {
		return nil, err
	}
	for i := range po.outs {
		if po.outs[i] != untraced.outs[i] {
			return nil, fmt.Errorf("%s: traced and untraced passes disagree:\n  untraced %+v\n  traced   %+v",
				items[i].name, untraced.outs[i], po.outs[i])
		}
	}
	if err := checkTimings(rec, po, spec.batch); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := rec.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	var base time.Duration
	for _, d := range untraced.perItem {
		base += d
	}
	overhead := 100 * (rec.total("request") - base).Seconds() / base.Seconds()
	untracedMS := base.Seconds() * 1e3 / float64(len(items))
	return layerMetrics(rec, po, rt, len(items), spec.batch, sl, untracedMS, overhead), nil
}
