package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// opKind names what one client request does.
type opKind int

const (
	opPut opKind = iota
	opGet
	opDegradedGet
	opRangeGet
	opPatch
	numOpKinds
)

var opNames = [numOpKinds]string{"put", "get", "degraded_get", "range_get", "patch"}

// object is one key in the model. Its owner is the only client that
// writes it, so v is always the content the store must return. A write
// that fails other than by a 429 leaves the stored bytes unknown until
// the client's re-PUT of v succeeds.
type object struct {
	name    string
	class   string // workload-specific size class, e.g. "tiny"
	owner   int    // owning client, or -1 for a read-only object
	slab    bool   // stored slab-packed (size at or below the slab threshold)
	v       version
	unknown bool // a write failed and its re-PUT too, so the stored bytes are not known
}

// request is one planned client operation.
type request struct {
	kind opKind
	obj  *object
	off  int64 // range GET / PATCH offset
	n    int64 // range GET / PATCH length
	// start is the pool position of the bytes a PUT or PATCH sends.
	start int64
}

// opResult is what the client learnt from one request.
type opResult struct {
	err      error // transport error, unexpected status or torn body
	shed     bool  // err is a refusal by admission control (429)
	mismatch error // the response contradicted the model
	bytes    int64 // user bytes moved
	inPlace  bool  // PATCH landed in place
}

// failure describes a request that did not succeed: err is the transport
// or body error, or nil when status alone is the failure.
func failure(q request, status int, err error) opResult {
	if err == nil {
		err = fmt.Errorf("status %d", status)
	}
	return opResult{err: fmt.Errorf("%s %s: %w", opNames[q.kind], q.obj.name, err),
		shed: status == http.StatusTooManyRequests}
}

// client is one closed-loop HTTP client: one keep-alive connection,
// next request sent only when the previous one has completed.
type client struct {
	id      int
	base    string
	hc      *http.Client
	pool    *payloadPool
	scratch []byte
	rec     *Recorder
	nextReq *atomic.Uint64
}

func newClient(id int, base string, pool *payloadPool, rec *Recorder, nextReq *atomic.Uint64) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr}, pool: pool,
		scratch: make([]byte, 64<<10), rec: rec, nextReq: nextReq}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) url(o *object) string { return c.base + "/o/" + o.name }

// do sends q, checks the answer against the model, and updates the model
// on a successful write.
func (c *client) do(ctx context.Context, q request) opResult {
	req := c.nextReq.Add(1)
	var start int64
	if c.rec.recording() {
		start = c.rec.now()
	}
	res := c.send(ctx, req, q)
	if o := q.obj; o.unknown && (q.kind == opPut || q.kind == opPatch) {
		// The failed write may or may not have landed: one re-PUT of the
		// model's bytes brings the object back under check.
		if re := c.put(ctx, c.nextReq.Add(1), o, &o.v); re.err != nil || re.mismatch != nil {
			res.err = errors.Join(res.err, re.err, re.mismatch)
		}
	}
	if c.rec.recording() {
		note := opNames[q.kind]
		if q.obj.slab {
			note += ":slab"
		}
		c.rec.add(Span{ID: c.rec.id(), Req: req, Name: "client", Start: start, End: c.rec.now(),
			Bytes: res.bytes, Err: res.err != nil, Note: note})
	}
	return res
}

func (c *client) send(ctx context.Context, req uint64, q request) opResult {
	switch q.kind {
	case opPut:
		return c.put(ctx, req, q.obj, &version{size: q.obj.v.size, start: q.start})
	case opPatch:
		return c.patch(ctx, req, q)
	default:
		return c.get(ctx, req, q)
	}
}

func (c *client) newRequest(ctx context.Context, req uint64, method, url string, body io.Reader) (*http.Request, error) {
	r, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	r.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	return r, nil
}

func (c *client) put(ctx context.Context, req uint64, o *object, v *version) opResult {
	q := request{kind: opPut, obj: o}
	r, err := c.newRequest(ctx, req, http.MethodPut, c.url(o), c.pool.reader(v))
	if err != nil {
		return failure(q, 0, err)
	}
	r.ContentLength = v.size
	resp, err := c.hc.Do(r)
	if err != nil {
		o.unknown = true
		return failure(q, 0, err)
	}
	defer resp.Body.Close()
	var pr struct {
		Size int64 `json:"size"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&pr)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		o.unknown = resp.StatusCode != http.StatusTooManyRequests
		return failure(q, resp.StatusCode, nil)
	}
	if derr != nil {
		o.unknown = true
		return failure(q, resp.StatusCode, derr)
	}
	o.v, o.unknown = *v, false
	if pr.Size != v.size {
		return opResult{bytes: v.size, mismatch: fmt.Errorf("PUT %s: stored size %d, sent %d", o.name, pr.Size, v.size)}
	}
	return opResult{bytes: v.size}
}

func (c *client) patch(ctx context.Context, req uint64, q request) opResult {
	o := q.obj
	pt := patch{off: q.off, n: q.n, start: q.start}
	body := c.pool.window(pt.start, pt.n)
	r, err := c.newRequest(ctx, req, http.MethodPatch, c.url(o), bytes.NewReader(body))
	if err != nil {
		return failure(q, 0, err)
	}
	r.ContentLength = pt.n
	r.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", pt.off, pt.off+pt.n-1))
	resp, err := c.hc.Do(r)
	if err != nil {
		o.unknown = true
		return failure(q, 0, err)
	}
	defer resp.Body.Close()
	var pr struct {
		Size    int64 `json:"size"`
		InPlace bool  `json:"in_place"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&pr)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		o.unknown = resp.StatusCode != http.StatusTooManyRequests
		return failure(q, resp.StatusCode, nil)
	}
	if derr != nil {
		o.unknown = true
		return failure(q, resp.StatusCode, derr)
	}
	o.v.patches = append(o.v.patches, pt)
	res := opResult{bytes: pt.n, inPlace: pr.InPlace}
	if pr.Size != o.v.size {
		res.mismatch = fmt.Errorf("PATCH %s: size %d after patch, want %d", o.name, pr.Size, o.v.size)
	}
	return res
}

func (c *client) get(ctx context.Context, req uint64, q request) opResult {
	o := q.obj
	r, err := c.newRequest(ctx, req, http.MethodGet, c.url(o), nil)
	if err != nil {
		return failure(q, 0, err)
	}
	off, n := int64(0), o.v.size
	if q.kind == opRangeGet {
		off, n = q.off, q.n
		r.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return failure(q, 0, err)
	}
	defer resp.Body.Close()
	want := http.StatusOK
	if q.kind == opRangeGet {
		want = http.StatusPartialContent
	}
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		return failure(q, resp.StatusCode, nil)
	}
	if o.unknown {
		nb, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			return failure(q, resp.StatusCode, err)
		}
		return opResult{bytes: nb}
	}
	chk := newChecker(c.pool, &o.v, off, n, c.scratch)
	nb, err := io.Copy(chk, resp.Body)
	if err != nil {
		return failure(q, resp.StatusCode, err)
	}
	res := opResult{bytes: nb}
	if err := chk.result(); err != nil {
		res.mismatch = fmt.Errorf("%s %s: %w", opNames[q.kind], o.name, err)
		return res
	}
	if q.kind == opRangeGet {
		cr := fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, o.v.size)
		if got := resp.Header.Get("Content-Range"); got != cr {
			res.mismatch = fmt.Errorf("range_get %s: Content-Range %q, want %q", o.name, got, cr)
			return res
		}
	}
	degraded := resp.Trailer.Get("X-Gemmec-Degraded") == "true"
	if degraded != (q.kind == opDegradedGet) {
		res.mismatch = fmt.Errorf("%s %s: degraded trailer %q", opNames[q.kind], o.name, resp.Trailer.Get("X-Gemmec-Degraded"))
	}
	return res
}
