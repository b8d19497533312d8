package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// requestIDHeader is the header the transport propagates client → router →
// shard; the harness reads it in its handler wrapper to link a server span to
// the client span that caused it.
const requestIDHeader = "Ldp-Request-Id"

// span is one timed call the harness made into a layer (or one request a
// wrapped server handler served). Times are nanoseconds since the tracer
// started; Parent is the index of the causing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request string `json:"request,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured path carries no
// recording cost beyond a nil check.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// byRequest maps a request id to the innermost open span carrying it, so
	// router.handle finds client.post and shard.handle finds router.handle.
	byRequest map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byRequest: make(map[string]int)}
}

// begin opens a span. parent < 0 with a request id links to the innermost
// span already open for that request.
func (t *tracer) begin(name string, parent int, request string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if request != "" {
		if p, ok := t.byRequest[request]; ok && parent < 0 {
			parent = p
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Request: request})
	if request != "" {
		t.byRequest[request] = id
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	sp := &t.spans[id]
	sp.End = now
	if sp.Request != "" && t.byRequest[sp.Request] == id {
		if sp.Parent >= 0 && t.spans[sp.Parent].Request == sp.Request {
			t.byRequest[sp.Request] = sp.Parent
		} else {
			delete(t.byRequest, sp.Request)
		}
	}
	t.mu.Unlock()
}

// record adds a span whose endpoints were taken by the caller (optimizer
// iterations, reconstructed from progress-callback timestamps).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
	t.mu.Unlock()
}

// handler wraps a served tier so every request it handles is a span, named
// name + the request path and linked, through Ldp-Request-Id, to the client
// span that sent it.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(name+r.URL.Path, -1, r.Header.Get(requestIDHeader))
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// spanStat aggregates one span name: how often it ran, its total duration and
// its self time (duration minus the part its children cover).
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// stats computes per-name totals and self times. Children of one span may
// overlap (two goroutines under one phase), so the covered part of the parent
// is the union of the child intervals clipped to the parent, not their sum.
func (t *tracer) stats() []spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	agg := make(map[string]*spanStat)
	for i, sp := range spans {
		st := agg[sp.Name]
		if st == nil {
			st = &spanStat{Name: sp.Name}
			agg[sp.Name] = st
		}
		dur := sp.End - sp.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(children[i], sp.Start, sp.End)) / 1e6
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < a {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// totalMs returns the summed duration of every span with the given name.
func totalMs(stats []spanStat, name string) float64 {
	for _, st := range stats {
		if st.Name == name {
			return st.TotalMs
		}
	}
	return 0
}

// write dumps every span to path as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Unit  string `json:"time_unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
