package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gemmec"
)

// Span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     uint64 `json:"id"`
	Req    uint64 `json:"req"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Err    bool   `json:"err,omitempty"`
	// Note carries one fact about the call the layer metrics need: the
	// client op kind on a root span, "inplace" on an in-place PATCH.
	Note string `json:"note,omitempty"`
}

func (s Span) interval() interval { return interval{s.Start, s.End} }

// binding ties a goroutine or a context to the request and store span it
// is working for, so a vfs call — which carries no context — can be
// attributed to the request whose goroutine made it.
type binding struct {
	req, parent uint64
}

// Recorder keeps spans in memory while on is set. A nil *Recorder records
// nothing, so untraced runs pay only a nil check.
type Recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []Span
	byGo   map[uint64]binding // goroutine id -> binding
	active map[uint64]binding // open store span id -> binding

	pipes     []gemmec.StreamStats // one per stream call
	queuePeak atomic.Int64
}

func newRecorder() *Recorder {
	return &Recorder{
		epoch:  time.Now(),
		byGo:   map[uint64]binding{},
		active: map[uint64]binding{},
	}
}

func (r *Recorder) recording() bool { return r != nil && r.on.Load() }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *Recorder) id() uint64 { return r.nextID.Add(1) }

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans and pipeline samples recorded so far.
func (r *Recorder) snapshot() ([]Span, []gemmec.StreamStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...), append([]gemmec.StreamStats(nil), r.pipes...)
}

func (r *Recorder) addPipe(st gemmec.StreamStats) {
	r.mu.Lock()
	r.pipes = append(r.pipes, st)
	r.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond and runs
// only on traced calls that open, create or rename a file.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// enter opens a store span for req on the calling goroutine and returns
// its id; leave closes it. Between the two, vfs calls on this goroutine
// and scheduler waits while it is the only open store span are its
// children.
func (r *Recorder) enter(req, parent uint64) (id uint64, start int64) {
	id = r.id()
	b := binding{req: req, parent: id}
	g := goid()
	r.mu.Lock()
	r.byGo[g] = b
	r.active[id] = b
	r.mu.Unlock()
	return id, r.now()
}

func (r *Recorder) leave(id uint64) {
	g := goid()
	r.mu.Lock()
	delete(r.byGo, g)
	delete(r.active, id)
	r.mu.Unlock()
}

// onGoroutine returns the binding of the calling goroutine, or the zero
// binding (background work such as the slab writer's group commit).
func (r *Recorder) onGoroutine() binding {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byGo[g]
}

// soleActive returns the binding of the only open store span, or the
// zero binding when none or several are open. The scheduler reports a
// wait with no request attached; it is attributed only when that is
// unambiguous.
func (r *Recorder) soleActive() binding {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.active) != 1 {
		return binding{}
	}
	for _, b := range r.active {
		return b
	}
	return binding{}
}

// onSchedWait is the bench scheduler's SchedulerConfig.OnWait: one span
// per stripe task for the time it sat queued.
func (r *Recorder) onSchedWait(d time.Duration, queue int) {
	if !r.recording() {
		return
	}
	if int64(queue) > r.queuePeak.Load() {
		r.queuePeak.Store(int64(queue))
	}
	end := r.now()
	b := r.soleActive()
	r.add(Span{ID: r.id(), Req: b.req, Parent: b.parent, Name: "sched.wait", Start: end - int64(d), End: end})
}

type ctxKey struct{}

// withBinding threads a request's binding through a context, as the
// bench's HTTP middleware and Backend wrapper do for the transport layer.
func withBinding(ctx context.Context, b binding) context.Context {
	return context.WithValue(ctx, ctxKey{}, b)
}

func bindingFrom(ctx context.Context) binding {
	b, _ := ctx.Value(ctxKey{}).(binding)
	return b
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
