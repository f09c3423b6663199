package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/serve"
	"repro/internal/soundcheck"
)

// outcome is the checked content of one analysis answer: the alias
// counts per analysis, a digest of the non-empty LT sets, and the
// sanitizer summary ("" when the workload does not sanitize). Two
// answers for the same input must have equal outcomes, whichever
// path (sraa, sraad, the in-process pipeline or the replay) made them.
type outcome struct {
	Alias    string `json:"alias"`
	LT       string `json:"lt"`
	Sanitize string `json:"sanitize,omitempty"`
}

// aliasKey renders per-analysis counts in name order.
func aliasKey(counts map[string]alias.Counts) string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, n := range names {
		c := counts[n]
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d/%d/%d/%d", n, c.Queries, c.No, c.May, c.Must)
	}
	return sb.String()
}

func aliasFromReport(rep *alias.Report) string {
	counts := map[string]alias.Counts{}
	for n, c := range rep.PerAnalysis {
		counts[n] = *c
	}
	return aliasKey(counts)
}

func aliasFromWire(w map[string]serve.AliasCounts) string {
	counts := map[string]alias.Counts{}
	for n, c := range w {
		counts[n] = alias.Counts{Queries: c.Queries, No: c.NoAlias, May: c.May, Must: c.Must}
	}
	return aliasKey(counts)
}

var aliasRow = regexp.MustCompile(`^(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+\S+$`)

// aliasFromText parses the aa-eval table sraa prints.
func aliasFromText(out string) (string, error) {
	counts := map[string]alias.Counts{}
	for _, line := range strings.Split(out, "\n") {
		m := aliasRow.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		var v [4]int
		for i := range v {
			v[i], _ = strconv.Atoi(m[i+2])
		}
		counts[m[1]] = alias.Counts{Queries: v[0], No: v[1], May: v[2], Must: v[3]}
	}
	if len(counts) == 0 {
		return "", fmt.Errorf("no alias table in sraa output")
	}
	return aliasKey(counts), nil
}

// ltDigest hashes canonical "func|var|members" entries in sorted order.
func ltDigest(entries []string) string {
	sort.Strings(entries)
	h := sha256.New()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%s", len(entries), hex.EncodeToString(h.Sum(nil))[:16])
}

func ltFromResult(m *ir.Module, lt *core.Result) string {
	var entries []string
	for _, f := range m.Funcs {
		for _, v := range lt.VarsOf(f) {
			set := lt.LT(v)
			if len(set) == 0 {
				continue
			}
			refs := make([]string, len(set))
			for i, w := range set {
				refs[i] = w.Ref()
			}
			entries = append(entries, f.FName+"|"+v.Ref()+"|"+strings.Join(refs, ","))
		}
	}
	return ltDigest(entries)
}

// ltFromWire digests sraad's "func.var" → members map. Function names
// are C identifiers, so the first dot ends the function name.
func ltFromWire(w map[string][]string) string {
	entries := make([]string, 0, len(w))
	for k, refs := range w {
		fn, v, _ := strings.Cut(k, ".")
		entries = append(entries, fn+"|"+v+"|"+strings.Join(refs, ","))
	}
	return ltDigest(entries)
}

var ltLine = regexp.MustCompile(`^@(\S+): LT\((.*)\) = \{(.*)\}$`)

// ltFromText digests the sets sraa -lt prints.
func ltFromText(out string) string {
	var entries []string
	for _, line := range strings.Split(out, "\n") {
		m := ltLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		entries = append(entries, m[1]+"|"+m[2]+"|"+strings.ReplaceAll(m[3], ", ", ","))
	}
	return ltDigest(entries)
}

func sanitizeKey(s sanitize.Summary) string {
	return fmt.Sprintf("checks=%d safe=%d unsafe=%d unknown=%d", s.Checks, s.Safe, s.Unsafe, s.Unknown)
}

func sanitizeFromWire(s *serve.SanitizeCounts) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("checks=%d safe=%d unsafe=%d unknown=%d", s.Checks, s.Safe, s.Unsafe, s.Unknown)
}

// combine folds a list of outcomes into one, for pinning a sample.
func combine(outs []outcome) outcome {
	var a, l, s []string
	for _, o := range outs {
		a = append(a, o.Alias)
		l = append(l, o.LT)
		s = append(s, o.Sanitize)
	}
	sum := func(xs []string) string {
		h := sha256.Sum256([]byte(strings.Join(xs, "\n")))
		return fmt.Sprintf("%d:%s", len(xs), hex.EncodeToString(h[:])[:16])
	}
	return outcome{Alias: sum(a), LT: sum(l), Sanitize: sum(s)}
}

// pins holds the outcomes recorded when the benchmark was defined:
// per seed for batch-synth and serve-cold (the checked sample,
// combined), per program for serve-warm, whose program set is fixed.
// Any drift is a correctness failure; regenerate deliberately with
// --write-pins when a change is meant to alter analysis results.
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]outcome

var loadPins = sync.OnceValues(func() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
})

// checkPin compares got with the pinned outcome for (workload, key).
// A missing pin is not a failure: seeds beyond the pinned range still
// get the cross-path checks.
func checkPin(workload, key string, got outcome) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	if want, ok := p[workload][key]; ok && want != got {
		return fmt.Errorf("%s %s drifted from pins.json:\n  pinned %+v\n  got    %+v", workload, key, want, got)
	}
	return nil
}

// oracle runs the interpreter-based soundness checkers on one analyzed
// module and returns the number of violations. A program that traps at
// run time still validates every block it reached.
func oracle(m *ir.Module, lt *core.Result) (violations int) {
	if m.FuncByName("main") == nil {
		return 0
	}
	if rep, _ := soundcheck.CheckLT(m, lt, "main"); rep != nil {
		violations += rep.ViolationCount()
	}
	aa := alias.NewChain(alias.NewBasic(m), alias.NewSRAA(lt))
	if rep, _ := soundcheck.CheckAlias(m, aa, "main"); rep != nil {
		violations += rep.ViolationCount()
	}
	return violations
}
