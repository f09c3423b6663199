package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/synth"
)

// pinsPath is where --write-pins writes, relative to the repository
// root the benchmark runs from.
var pinsPath = filepath.Join("perfbench", "pins.json")

// writePins recomputes every pinned outcome with the in-process
// pipeline, which each run checks the binaries against, for seeds
// 0..seeds-1.
func writePins(seeds int) error {
	p := pinTable{"batch-synth": {}, "serve-warm": {}, "serve-cold": {}}
	for _, prog := range corpus.TestSuite(warmPrograms) {
		ref, _, err := runPass(nil, []item{{name: prog.Name, src: prog.Source}}, serveSpec(), nil, nil)
		if err != nil {
			return err
		}
		p["serve-warm"][prog.Name] = ref.outs[0]
	}
	for s := int64(0); s < int64(seeds); s++ {
		key := strconv.FormatInt(s, 10)
		ref, _, err := runPass(nil, []item{{name: fmt.Sprintf("synth-%d", s), src: synth.Module(batchFuncs, s)}}, batchSpec(), nil, nil)
		if err != nil {
			return err
		}
		p["batch-synth"][key] = ref.outs[0]
		in, err := genServeInputs(s, true, 20)
		if err != nil {
			return err
		}
		items, _ := refSample(in)
		if ref, _, err = runPass(nil, items, serveSpec(), nil, nil); err != nil {
			return err
		}
		p["serve-cold"][key] = combine(ref.outs)
		fmt.Fprintf(os.Stderr, "perfbench: pinned seed %d\n", s)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(data, '\n'), 0o644)
}
