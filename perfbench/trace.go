package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a request's root).
// Replayed stage spans name the production harness call they replay
// as their parent, although they run after it.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration // since the recorder's origin
	Alloc           uint64        // bytes allocated during the call
	Replay          bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// run ends. A nil *recorder records nothing and only runs the calls,
// which is the untraced pass.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens span name under parent and returns its ID; end closes
// it. Allocation is read from the runtime outside the timed interval;
// callers run one call at a time, so the delta belongs to the span
// (and includes its children's).
func (r *recorder) begin(name string, parent, req int, replay bool) int {
	if r == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Replay: replay, Alloc: ms.TotalAlloc, Start: time.Since(r.origin),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.End = time.Since(r.origin)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Alloc = ms.TotalAlloc - s.Alloc
}

// do runs fn as one span and returns the span's ID.
func (r *recorder) do(name string, parent, req int, replay bool, fn func()) int {
	id := r.begin(name, parent, req, replay)
	fn()
	r.end(id)
	return id
}

// total sums the durations of every span called name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// alloc sums the allocation of every span called name.
func (r *recorder) alloc(name string) uint64 {
	var a uint64
	for _, s := range r.spans {
		if s.Name == name {
			a += s.Alloc
		}
	}
	return a
}

// self sums, over every span called name, its duration minus the
// durations of its children. Replayed children run outside their
// parent's interval, so their durations are subtracted rather than
// their overlap.
func (r *recorder) self(name string) time.Duration {
	children := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.dur() - children[s.ID]
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds). Each request gets its own thread row and
// its replay a second one, so replayed spans do not draw on top of the
// production calls they replay.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteString(",")
		}
		tid := 2 * s.Req
		if s.Replay {
			tid++
		}
		enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "request": s.Req,
				"alloc_bytes": s.Alloc, "replay": s.Replay,
			},
		})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
