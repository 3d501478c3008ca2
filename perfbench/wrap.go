package main

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"

	"gemmec"
	"gemmec/internal/peer"
	"gemmec/internal/server"
	"gemmec/internal/vfs"
)

// The wrappers below time calls into each layer from outside, through the
// seams the program already exposes. Each passes bytes, results and
// errors through unchanged; with recording off each costs one atomic
// load per call.

// reqHeader carries the client's request id to the server-side wrappers.
const reqHeader = "X-Bench-Request"

// tracedHandler is the http layer's span: from the handler's entry to
// its return, around NewBackendHandler.
func tracedHandler(rec *Recorder, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.recording() {
			inner.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		id, start := rec.id(), rec.now()
		r = r.WithContext(withBinding(r.Context(), binding{req: req, parent: id}))
		defer func() {
			rec.add(Span{ID: id, Req: req, Name: "http.handler", Start: start, End: rec.now()})
		}()
		inner.ServeHTTP(w, r)
	})
}

// tracedFS wraps the store's vfs.FS (StoreConfig.FS).
type tracedFS struct {
	inner vfs.FS
	rec   *Recorder
}

// span records one vfs call for the request whose goroutine made it. A
// missing file is an expected answer (the lost shard of a degraded
// read), not a failed call.
func (f tracedFS) span(b binding, name string, start int64, n int64, err error) {
	f.rec.add(Span{ID: f.rec.id(), Req: b.req, Parent: b.parent, Name: name,
		Start: start, End: f.rec.now(), Bytes: n, Err: err != nil && !errors.Is(err, fs.ErrNotExist), Note: errNote(err)})
}

// errNote keeps a failed call's error text on its span.
func errNote(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (f tracedFS) openWith(name, span string, open func(string) (vfs.File, error)) (vfs.File, error) {
	if !f.rec.recording() {
		return open(name)
	}
	b, start := f.rec.onGoroutine(), f.rec.now()
	file, err := open(name)
	f.span(b, span, start, 0, err)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, b: b}, nil
}

func (f tracedFS) Open(name string) (vfs.File, error) {
	return f.openWith(name, "vfs.open", f.inner.Open)
}

func (f tracedFS) OpenRW(name string) (vfs.File, error) {
	return f.openWith(name, "vfs.open", f.inner.OpenRW)
}

func (f tracedFS) Create(name string) (vfs.File, error) {
	return f.openWith(name, "vfs.create", f.inner.Create)
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	if !f.rec.recording() {
		return f.inner.Rename(oldpath, newpath)
	}
	b, start := f.rec.onGoroutine(), f.rec.now()
	err := f.inner.Rename(oldpath, newpath)
	f.span(b, "vfs.rename", start, 0, err)
	return err
}

func (f tracedFS) Remove(name string) error {
	if !f.rec.recording() {
		return f.inner.Remove(name)
	}
	b, start := f.rec.onGoroutine(), f.rec.now()
	err := f.inner.Remove(name)
	f.span(b, "vfs.remove", start, 0, err)
	return err
}

func (f tracedFS) ReadFile(name string) ([]byte, error) {
	if !f.rec.recording() {
		return f.inner.ReadFile(name)
	}
	b, start := f.rec.onGoroutine(), f.rec.now()
	data, err := f.inner.ReadFile(name)
	f.span(b, "vfs.read", start, int64(len(data)), err)
	return data, err
}

func (f tracedFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if !f.rec.recording() {
		return f.inner.WriteFile(name, data, perm)
	}
	b, start := f.rec.onGoroutine(), f.rec.now()
	err := f.inner.WriteFile(name, data, perm)
	f.span(b, "vfs.write", start, int64(len(data)), err)
	return err
}

// tracedFile attributes its reads and writes to the request that opened
// it: the pipeline's reader and writer goroutines carry no binding of
// their own.
type tracedFile struct {
	vfs.File
	fs tracedFS
	b  binding
}

func (t *tracedFile) Read(p []byte) (int, error) {
	if !t.fs.rec.recording() {
		return t.File.Read(p)
	}
	start := t.fs.rec.now()
	n, err := t.File.Read(p)
	if err == io.EOF {
		t.fs.span(t.b, "vfs.read", start, int64(n), nil)
	} else {
		t.fs.span(t.b, "vfs.read", start, int64(n), err)
	}
	return n, err
}

func (t *tracedFile) Write(p []byte) (int, error) {
	if !t.fs.rec.recording() {
		return t.File.Write(p)
	}
	start := t.fs.rec.now()
	n, err := t.File.Write(p)
	t.fs.span(t.b, "vfs.write", start, int64(n), err)
	return n, err
}

// tracedBackend wraps the Backend handed to NewBackendHandler. It records
// one store span per call and hands the pipeline's StreamStats to the
// recorder. The handler mounts PATCH and honours Range only when its
// backend implements RangeOpener and Patcher, so the wrapper requires and
// keeps both; Store and Gateway implement them.
type tracedBackend struct {
	backend
	rec *Recorder
}

// backend is what the benchmark serves: a Backend with Range and PATCH.
type backend interface {
	server.Backend
	server.RangeOpener
	server.Patcher
}

// call runs fn as a store span named name. fn receives the context to
// pass down, which carries the span's binding to the transport layer.
func (t *tracedBackend) call(ctx context.Context, name string, n int64, fn func(context.Context) (string, error)) {
	if !t.rec.recording() {
		fn(ctx)
		return
	}
	b := bindingFrom(ctx)
	id, start := t.rec.enter(b.req, b.parent)
	note, err := fn(withBinding(ctx, binding{req: b.req, parent: id}))
	t.rec.leave(id)
	t.rec.add(Span{ID: id, Req: b.req, Parent: b.parent, Name: name, Start: start, End: t.rec.now(),
		Bytes: n, Err: err != nil, Note: note})
}

func (t *tracedBackend) Put(ctx context.Context, name string, src io.Reader, size int64) (meta server.ObjectMeta, st gemmec.StreamStats, err error) {
	t.call(ctx, "store.put", size, func(ctx context.Context) (string, error) {
		meta, st, err = t.backend.Put(ctx, name, src, size)
		if err == nil && t.rec.recording() {
			t.rec.addPipe(st)
		}
		return "", err
	})
	return meta, st, err
}

func (t *tracedBackend) Open(ctx context.Context, name string) (o server.ObjectStream, err error) {
	t.call(ctx, "store.open", 0, func(ctx context.Context) (string, error) {
		o, err = t.backend.Open(ctx, name)
		return "", err
	})
	if err != nil {
		return nil, err
	}
	return &tracedStream{ObjectStream: o, t: t, ctx: ctx}, nil
}

func (t *tracedBackend) OpenRange(ctx context.Context, name string, off, length int64) (o server.RangedStream, err error) {
	t.call(ctx, "store.open", 0, func(ctx context.Context) (string, error) {
		o, err = t.backend.OpenRange(ctx, name, off, length)
		return "", err
	})
	if err != nil {
		return nil, err
	}
	return &tracedRangedStream{tracedStream{ObjectStream: o, t: t, ctx: ctx}, o}, nil
}

func (t *tracedBackend) Patch(ctx context.Context, name string, data []byte, off int64) (meta server.ObjectMeta, ps server.PatchStats, err error) {
	t.call(ctx, "store.patch", int64(len(data)), func(ctx context.Context) (string, error) {
		meta, ps, err = t.backend.Patch(ctx, name, data, off)
		if ps.InPlace {
			return "inplace", err
		}
		return "", err
	})
	return meta, ps, err
}

// tracedStream times Stream, where a GET's shard reads and decode run.
type tracedStream struct {
	server.ObjectStream
	t   *tracedBackend
	ctx context.Context
}

func (s *tracedStream) Stream(dst io.Writer) (st gemmec.StreamStats, err error) {
	s.t.call(s.ctx, "store.stream", 0, func(ctx context.Context) (string, error) {
		st, err = s.ObjectStream.Stream(dst)
		if err == nil && s.t.rec.recording() {
			s.t.rec.addPipe(st)
		}
		return "", err
	})
	return st, err
}

type tracedRangedStream struct {
	tracedStream
	r server.RangedStream
}

func (s *tracedRangedStream) Range() (off, length int64) { return s.r.Range() }

// tracedTransport wraps one peer.Transport in GatewayConfig.Transports.
type tracedTransport struct {
	inner peer.Transport
	rec   *Recorder
}

// span records one transport call. A shard or metadata replica the peer
// does not hold is an expected answer (degraded reads, first PUTs), and a
// call its caller canceled (the straggler of a majority metadata read) was
// abandoned, not failed.
func (t tracedTransport) span(ctx context.Context, name string, start, n int64, err error) {
	b := bindingFrom(ctx)
	failed := err != nil && ctx.Err() == nil &&
		!errors.Is(err, peer.ErrShardNotFound) && !errors.Is(err, peer.ErrMetaNotFound)
	t.rec.add(Span{ID: t.rec.id(), Req: b.req, Parent: b.parent, Name: name,
		Start: start, End: t.rec.now(), Bytes: n, Err: failed, Note: errNote(err)})
}

// countingReader counts the bytes a PutShard body delivered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (t tracedTransport) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	if !t.rec.recording() {
		return t.inner.PutShard(ctx, key, gen, idx, size, body)
	}
	start := t.rec.now()
	cr := &countingReader{r: body}
	err := t.inner.PutShard(ctx, key, gen, idx, size, cr)
	t.span(ctx, "peer.put_shard", start, cr.n, err)
	return err
}

func (t tracedTransport) GetShard(ctx context.Context, key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	if !t.rec.recording() {
		return t.inner.GetShard(ctx, key, gen, idx)
	}
	start := t.rec.now()
	rc, size, err := t.inner.GetShard(ctx, key, gen, idx)
	t.span(ctx, "peer.get_shard", start, 0, err)
	return rc, size, err
}

func (t tracedTransport) GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	if !t.rec.recording() {
		return t.inner.GetShardRange(ctx, key, gen, idx, off, length)
	}
	start := t.rec.now()
	rc, size, err := t.inner.GetShardRange(ctx, key, gen, idx, off, length)
	t.span(ctx, "peer.get_shard", start, 0, err)
	return rc, size, err
}

func (t tracedTransport) StatShard(ctx context.Context, key string, gen uint64, idx int) (int64, error) {
	if !t.rec.recording() {
		return t.inner.StatShard(ctx, key, gen, idx)
	}
	start := t.rec.now()
	size, err := t.inner.StatShard(ctx, key, gen, idx)
	t.span(ctx, "peer.meta", start, 0, err)
	return size, err
}

func (t tracedTransport) DeleteShard(ctx context.Context, key string, gen uint64, idx int) error {
	if !t.rec.recording() {
		return t.inner.DeleteShard(ctx, key, gen, idx)
	}
	start := t.rec.now()
	err := t.inner.DeleteShard(ctx, key, gen, idx)
	t.span(ctx, "peer.delete", start, 0, err)
	return err
}

func (t tracedTransport) DeleteObject(ctx context.Context, key string) error {
	if !t.rec.recording() {
		return t.inner.DeleteObject(ctx, key)
	}
	start := t.rec.now()
	err := t.inner.DeleteObject(ctx, key)
	t.span(ctx, "peer.delete", start, 0, err)
	return err
}

func (t tracedTransport) PutMeta(ctx context.Context, key string, meta []byte) error {
	if !t.rec.recording() {
		return t.inner.PutMeta(ctx, key, meta)
	}
	start := t.rec.now()
	err := t.inner.PutMeta(ctx, key, meta)
	t.span(ctx, "peer.meta", start, int64(len(meta)), err)
	return err
}

func (t tracedTransport) GetMeta(ctx context.Context, key string) ([]byte, error) {
	if !t.rec.recording() {
		return t.inner.GetMeta(ctx, key)
	}
	start := t.rec.now()
	meta, err := t.inner.GetMeta(ctx, key)
	t.span(ctx, "peer.meta", start, 0, err)
	return meta, err
}

func (t tracedTransport) ListMeta(ctx context.Context) ([]string, error) {
	if !t.rec.recording() {
		return t.inner.ListMeta(ctx)
	}
	start := t.rec.now()
	keys, err := t.inner.ListMeta(ctx)
	t.span(ctx, "peer.meta", start, 0, err)
	return keys, err
}

func (t tracedTransport) Ping(ctx context.Context) error {
	if !t.rec.recording() {
		return t.inner.Ping(ctx)
	}
	start := t.rec.now()
	err := t.inner.Ping(ctx)
	t.span(ctx, "peer.meta", start, 0, err)
	return err
}
