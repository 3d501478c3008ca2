package shardfile

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"gemmec"
	"gemmec/internal/ecerr"
	"gemmec/internal/obs"
	"gemmec/internal/vfs"
)

// Streaming shard-set I/O: the same on-disk layout as Write/Read, produced
// and consumed through the pipelined EncodeStream/DecodeStream API instead
// of buffering the whole file in memory. This is the eccli -stream-workers
// path and the read/write engine behind internal/server's object daemon.
//
// The path-based variants (WriteStreamPaths, OpenStreamPaths, ScrubPaths)
// take an explicit shard-file path per unit instead of one directory, so a
// caller can spread the k+r shards of one object across separate "node"
// directories (distinct failure domains) while reusing this package's
// manifest, verification and repair machinery.

const streamBufSize = 1 << 20

// Opts carries the cross-cutting knobs of the path-based streaming entry
// points: request lifetime, filesystem seam, and the per-shard read
// deadline. The zero value means "background context, real filesystem, no
// deadline" — exactly the pre-Opts behavior.
type Opts struct {
	// Ctx bounds the operation: encode/decode pipelines observe it between
	// stripes (see gemmec.WithStreamContext) and scrubbing checks it
	// between stripe rebuilds. Nil means context.Background().
	Ctx context.Context
	// FS is the filesystem the shard files live on. Nil means the real
	// one; tests substitute internal/faultfs to inject errors, torn
	// writes, latency and stalls.
	FS vfs.FS
	// ShardReadTimeout, when positive, bounds every underlying shard read
	// during decode: a read that exceeds it demotes that shard (cause
	// "stall") and the stream completes degraded instead of hanging on a
	// device that stopped answering. Zero disables the guard (and its
	// extra per-refill copy).
	ShardReadTimeout time.Duration
	// Sched, when non-nil, runs the encode/decode kernel stage on this
	// shared worker pool (gemmec.WithStreamScheduler) instead of spawning
	// a per-call pool sized by the workers argument. This is how a server
	// multiplexes every request's stripe work onto one bounded goroutine
	// set; the workers argument is ignored when Sched is set.
	Sched *gemmec.Scheduler
	// Source, when non-nil, supplies shared per-geometry coding state: the
	// compiled *gemmec.Code and the stripe-buffer pool for (k, r, unitSize).
	// Without it every call compiles a fresh code and allocates a fresh
	// ring — correct, but the per-request constant a server wants amortized
	// to zero. internal/tuned's Registry is the serving implementation; it
	// also makes the codes hot-swappable by the background autotuner.
	Source CodeSource
}

// CodeSource supplies shared coding state per stripe geometry. A source
// must return the same Code for the same geometry across calls (that is
// the point — engine, decoder cache and tuned schedule are reused), and
// its StripePool must match (k+r) x unitSize.
type CodeSource interface {
	StreamCode(k, r, unitSize int) (*gemmec.Code, error)
	StreamPool(k, r, unitSize int) (*gemmec.StripePool, error)
}

// code returns the shared code for the geometry when a Source is attached,
// otherwise a freshly built one.
func (o Opts) code(k, r, unitSize int) (*gemmec.Code, error) {
	if o.Source != nil {
		return o.Source.StreamCode(k, r, unitSize)
	}
	return gemmec.New(k, r, gemmec.WithUnitSize(unitSize))
}

// streamOpts translates the worker knob into stream options: the shared
// scheduler when Opts carries one (the workers count otherwise), plus the
// shared stripe pool when a Source supplies one.
func (o Opts) streamOpts(k, r, unitSize, workers int) []gemmec.StreamOption {
	opts := make([]gemmec.StreamOption, 0, 4)
	if o.Sched != nil {
		opts = append(opts, gemmec.WithStreamScheduler(o.Sched))
	} else {
		opts = append(opts, gemmec.WithStreamWorkers(workers))
	}
	if o.Source != nil {
		if p, err := o.Source.StreamPool(k, r, unitSize); err == nil && p != nil {
			opts = append(opts, gemmec.WithStreamPool(p))
		}
	}
	return opts
}

func (o Opts) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o Opts) fs() vfs.FS { return vfs.Or(o.FS) }

// ctxErr reports whether the Opts context is dead, wrapping its cause.
func (o Opts) ctxErr() error {
	if ctx := o.context(); ctx.Err() != nil {
		return fmt.Errorf("shardfile: canceled: %w", context.Cause(ctx))
	}
	return nil
}

// Pools for the per-request streaming state whose size does not depend on
// the object: 1 MiB bufio buffers (k+r+1 of them per request — by far the
// largest per-request allocation) and SHA-256 digests. Pooling them turns
// the request-setup cost from "allocate ~7 MiB" into a few pointer swaps
// once the pools are warm.
var (
	bufWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, streamBufSize) }}
	bufReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(eofReader{}, streamBufSize) }}
	sha256Pool    = sync.Pool{New: func() any { return sha256.New() }}
)

// eofReader is the parked source of pooled bufio.Readers: a pooled reader
// never holds a reference to a caller's file or socket.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

func getBufWriter(w io.Writer) *bufio.Writer {
	bw := bufWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putBufWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard) // drop buffered bytes and the sink reference
	bufWriterPool.Put(bw)
}

func getBufReader(r io.Reader) *bufio.Reader {
	br := bufReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putBufReader(br *bufio.Reader) {
	br.Reset(eofReader{})
	bufReaderPool.Put(br)
}

// stripeSummer accumulates the CRC32C of each UnitSize window of one shard
// stream, folding the v2 manifest's stripe-sum computation into the encode
// write path — the bytes are hashed as they stream past, no extra pass.
// The pipeline writes whole units, but the summer handles arbitrary write
// fragmentation anyway.
type stripeSummer struct {
	unit int
	n    int    // bytes into the current unit
	crc  uint32 // running CRC of the current unit
	sums []uint32
}

func (w *stripeSummer) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		take := w.unit - w.n
		if take > len(p) {
			take = len(p)
		}
		w.crc = crc32.Update(w.crc, castagnoli, p[:take])
		w.n += take
		p = p[take:]
		if w.n == w.unit {
			w.sums = append(w.sums, w.crc)
			w.crc, w.n = 0, 0
		}
	}
	return total, nil
}

// shardSink is one shard's write fan-out: the gathered equivalent of
// io.MultiWriter(bufio, sha256, stripeSummer). Each pipeline write lands
// in all three consumers from a single method body — no interface
// dispatch loop, no per-call multiWriter allocation — and only the disk
// write can fail (the hashing sinks are infallible by construction).
type shardSink struct {
	w   *bufio.Writer
	sha hash.Hash
	sum stripeSummer
}

func (s *shardSink) Write(p []byte) (int, error) {
	if _, err := s.w.Write(p); err != nil {
		return 0, err
	}
	s.sha.Write(p) //nolint:errcheck // hash.Hash.Write never fails
	s.sum.Write(p) //nolint:errcheck // stripeSummer.Write never fails
	return len(p), nil
}

// WriteStream encodes src (size bytes long) into a k+r shard set under
// dir, streaming stripes through workers concurrent kernel runs, and
// writes the manifest. Shard checksums are computed on the fly. Existing
// shard files are overwritten.
func WriteStream(dir string, src io.Reader, size int64, k, r, unitSize, workers int) (Manifest, gemmec.StreamStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{K: k, R: r, UnitSize: unitSize, FileSize: size}, gemmec.StreamStats{}, err
	}
	paths := make([]string, k+r)
	for i := range paths {
		paths[i] = ShardPath(dir, i)
	}
	m, st, err := WriteStreamPaths(paths, src, size, k, r, unitSize, workers, Opts{})
	if err != nil {
		return m, st, err
	}
	return m, st, SaveManifest(dir, m)
}

// WriteStreamPaths encodes src into k+r shard files at the given paths,
// streaming stripes through workers concurrent kernel runs, and returns the
// manifest describing the set (the caller persists it — SaveManifest for
// the single-directory layout, or embedded in object metadata for a
// multi-node layout). size is validated against the bytes actually read;
// pass size < 0 when the source length is unknown up front (e.g. a chunked
// HTTP upload). Each shard is written via a temporary file and renamed into
// place on success, so concurrent readers never observe a half-written
// shard. A canceled opt.Ctx (client disconnect, deadline, drain) aborts
// the encode between stripes and removes every temporary file — a
// canceled write leaves nothing behind.
func WriteStreamPaths(paths []string, src io.Reader, size int64, k, r, unitSize, workers int, opt Opts) (Manifest, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m := Manifest{K: k, R: r, UnitSize: unitSize, FileSize: size}
	if len(paths) != k+r {
		return m, st, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), k+r)
	}
	code, err := opt.code(k, r, unitSize)
	if err != nil {
		return m, st, err
	}
	fsys := opt.fs()
	files := make([]vfs.File, k+r)
	sinks := make([]shardSink, k+r)
	writers := make([]io.Writer, k+r)
	committed := false
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
				if !committed {
					fsys.Remove(f.Name())
				}
			}
		}
		for i := range sinks {
			if sinks[i].w != nil {
				putBufWriter(sinks[i].w)
			}
			if sinks[i].sha != nil {
				sinks[i].sha.Reset()
				sha256Pool.Put(sinks[i].sha)
			}
		}
	}()
	// Known size means known stripe count: size the per-shard stripe-sum
	// slices up front so the summers never grow mid-stream.
	sumCap := 1
	if size > 0 {
		stripeBytes := int64(k) * int64(unitSize)
		sumCap = int((size + stripeBytes - 1) / stripeBytes)
	}
	for i := range writers {
		f, err := fsys.Create(paths[i] + ".tmp")
		if err != nil {
			return m, st, err
		}
		files[i] = f
		sinks[i] = shardSink{
			w:   getBufWriter(f),
			sha: sha256Pool.Get().(hash.Hash),
			sum: stripeSummer{unit: unitSize, sums: make([]uint32, 0, sumCap)},
		}
		sinks[i].sha.Reset()
		writers[i] = &sinks[i]
	}

	// An empty file still gets one (all-zero) stripe, matching Write's
	// at-least-one-stripe invariant, so append a zero stripe to the source
	// when it is empty.
	if size == 0 {
		src = bytes.NewReader(make([]byte, code.DataSize()))
	}
	encOpts := append(opt.streamOpts(k, r, unitSize, workers),
		gemmec.WithStreamStats(&st), gemmec.WithStreamContext(opt.context()))
	in := getBufReader(src)
	sp := obs.StartSpan(opt.context(), "shardfile.encode")
	n, err := code.EncodeStream(in, writers, encOpts...)
	sp.SetArg(st.Stripes)
	sp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	sp.End(err)
	putBufReader(in)
	if err != nil {
		return m, st, err
	}
	if size > 0 && n != size {
		return m, st, fmt.Errorf("shardfile: source is %d bytes, expected %d", n, size)
	}
	if size < 0 {
		m.FileSize = n
	}
	m.Stripes = int(st.Stripes)
	if m.Stripes == 0 {
		// Unknown-size source that turned out empty: emit the all-zero
		// stripe now (zero data implies zero parity for a linear code).
		zero := make([]byte, unitSize)
		for i := range writers {
			if _, err := writers[i].Write(zero); err != nil {
				return m, st, err
			}
		}
		m.Stripes = 1
	}
	m.Version = ManifestV2
	m.Checksums = make([]string, k+r)
	m.StripeSums = make([][]uint32, k+r)
	for i := range files {
		if err := sinks[i].w.Flush(); err != nil {
			return m, st, err
		}
		if err := files[i].Close(); err != nil {
			return m, st, err
		}
		m.Checksums[i] = hex.EncodeToString(sinks[i].sha.Sum(nil))
		m.StripeSums[i] = sinks[i].sum.sums
	}
	if err := m.Validate(); err != nil {
		return m, st, err
	}
	for i := range files {
		if err := fsys.Rename(paths[i]+".tmp", paths[i]); err != nil {
			return m, st, err
		}
		files[i] = nil
	}
	committed = true
	return m, st, nil
}

// StreamReader is an opened shard set ready to decode, produced by
// OpenStreamPaths. For v2 (stripe-checksummed) manifests the open is O(1)
// per shard — existence and length only, no content reads — and integrity
// checking happens inside the decode pass itself: every unit is verified
// against its CRC32C as it enters the stripe ring, and a shard that fails
// mid-stream is demoted to erased and reconstructed around. For legacy v1
// manifests the open still pre-verifies whole-shard SHA-256 (in parallel,
// one goroutine per shard).
//
// Unusable()/Degraded() reflect what is known at the time of the call:
// open-time failures immediately, mid-stream demotions once Decode has
// run — internal/server uses the former for response headers and the
// latter for response trailers.
type StreamReader struct {
	m        Manifest
	opt      Opts
	readers  []io.Reader
	bufrs    []*bufio.Reader // pooled; returned to bufReaderPool on Close
	files    []vfs.File
	guards   []*stallGuard
	unusable []int
	corrupt  []int
	demoted  []gemmec.Demotion
}

// Manifest returns the manifest the reader was opened against.
func (sr *StreamReader) Manifest() Manifest { return sr.m }

// Unusable returns the shard indices that could not serve reads: missing
// files, wrong-length (truncated) files, checksum mismatches, and — after
// Decode — shards demoted mid-stream.
func (sr *StreamReader) Unusable() []int { return sr.unusable }

// Corrupt returns the subset of Unusable whose bytes were present but
// failed verification (truncation or checksum mismatch) — rot rather than
// loss.
func (sr *StreamReader) Corrupt() []int { return sr.corrupt }

// Demoted returns the shards Decode stopped trusting mid-stream, with the
// stripe and cause of each demotion. Empty before Decode and after clean
// decodes.
func (sr *StreamReader) Demoted() []gemmec.Demotion { return sr.demoted }

// Degraded reports whether reconstruction is (or was) needed: open-time
// losses immediately, mid-stream demotions once Decode has run.
func (sr *StreamReader) Degraded() bool { return len(sr.unusable) > 0 }

// Close releases the underlying shard files and lets any stall-guard pump
// goroutines wind down. It is safe to call after a failed Decode and is
// idempotent.
func (sr *StreamReader) Close() error {
	var first error
	for _, g := range sr.guards {
		if g != nil {
			g.stop()
		}
	}
	sr.guards = nil
	for _, br := range sr.bufrs {
		putBufReader(br)
	}
	sr.bufrs = nil
	for i, f := range sr.files {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			sr.files[i] = nil
		}
	}
	return first
}

// stripeVerifier checks units against the manifest's CRC32C stripe sums
// as the decode pipeline gathers them. The clean path allocates nothing —
// one table-driven CRC per unit, no hashing state — which is what keeps
// steady-state DecodeStream inside the allocation guard. base offsets the
// pipeline's stripe numbers into the manifest for range decodes that start
// mid-object (stripe 0 of the pipeline is manifest stripe base).
type stripeVerifier struct {
	sums [][]uint32
	base int64
}

func (v *stripeVerifier) VerifyUnit(shard int, stripe int64, unit []byte) error {
	stripe += v.base
	if stripe >= int64(len(v.sums[shard])) {
		return fmt.Errorf("shardfile: shard %d stripe %d beyond manifest's %d stripes: %w (%w)",
			shard, stripe, len(v.sums[shard]), ecerr.ErrShardTruncated, ecerr.ErrCorruptShard)
	}
	if crc32.Checksum(unit, castagnoli) != v.sums[shard][stripe] {
		return fmt.Errorf("shardfile: shard %d stripe %d fails CRC32C: %w", shard, stripe, ecerr.ErrCorruptShard)
	}
	return nil
}

// Decode streams the object's payload to dst through workers concurrent
// reconstruction workers, rebuilding the unusable shards' data units on
// the fly. For v2 manifests every unit is verified against its stripe
// checksum as it is read — the single pass both checks and decodes — and a
// shard that fails mid-stream (mismatch, truncation, read error) is
// demoted to erased and reconstructed around for the remaining stripes;
// see Demoted. It may be called at most once; Close must still be called
// after.
//
// The decode observes the Opts the reader was opened with: a canceled
// Ctx stops the pipeline between stripes, and a positive ShardReadTimeout
// demotes (cause "stall") any shard whose underlying read outlives the
// deadline instead of letting it hang the stream.
func (sr *StreamReader) Decode(dst io.Writer, workers int) (gemmec.StreamStats, error) {
	return sr.decodeSize(dst, workers, sr.m.FileSize)
}

// DecodeRange streams only payload bytes [off, off+length) to dst — the
// read path for ranged GETs and for one member of a packed (slab) shard
// set, whose SlabEntry gives the window. The decode is stripe-seeking on
// both ends: every usable shard file is positioned at the first stripe
// the window touches (one Seek, no prefix reads) and the pipeline stops
// at the last covering stripe, so the shard I/O is O(stripes covering the
// range) regardless of where the window falls in the object. Like Decode
// it may be called at most once.
//
// The bounds check is deliberately written without computing off+length:
// for adversarial values near MaxInt64 the sum wraps negative and would
// pass a naive `off+length > FileSize` comparison.
func (sr *StreamReader) DecodeRange(dst io.Writer, workers int, off, length int64) (gemmec.StreamStats, error) {
	if off < 0 || length < 0 || off > sr.m.FileSize || length > sr.m.FileSize-off {
		return gemmec.StreamStats{}, fmt.Errorf("shardfile: range [off=%d,len=%d) outside payload of %d bytes",
			off, length, sr.m.FileSize)
	}
	if length == 0 {
		return gemmec.StreamStats{}, nil
	}
	stripeBytes := int64(sr.m.K) * int64(sr.m.UnitSize)
	base := off / stripeBytes
	if err := sr.seekToStripe(base); err != nil {
		return gemmec.StreamStats{}, err
	}
	w := NewWindowWriter(dst, off-base*stripeBytes, length)
	st, err := sr.decodeFrom(w, workers, base, off+length-base*stripeBytes)
	if err != nil && errors.Is(err, ErrWindowDone) {
		// The window closed before the pipeline drained its final stripes —
		// the early-stop worked, the caller has every requested byte.
		err = nil
	}
	if err == nil && w.Remaining() > 0 {
		err = fmt.Errorf("shardfile: range decode ended %d bytes short of [off=%d,len=%d)", w.Remaining(), off, length)
	}
	return st, err
}

// seekToStripe positions every usable shard file at the start of manifest
// stripe `base` (byte base*UnitSize of each shard file). It must run
// before any decode reads: the pooled bufio layers and the stall-guard
// pumps are both lazy, so repositioning the files underneath them is
// safe. A shard whose Seek fails is dropped from the read set (decode
// reconstructs around it) rather than served from the wrong offset.
func (sr *StreamReader) seekToStripe(base int64) error {
	if base == 0 {
		return nil
	}
	target := base * int64(sr.m.UnitSize)
	for i, f := range sr.files {
		if f == nil {
			continue
		}
		if _, err := f.Seek(target, io.SeekStart); err != nil {
			sr.readers[i] = nil
			sr.unusable = appendShard(sr.unusable, i)
		}
	}
	if usable := sr.m.K + sr.m.R - len(sr.unusable); usable < sr.m.K {
		return fmt.Errorf("shardfile: only %d of %d shards seekable, need k=%d: %w",
			usable, sr.m.K+sr.m.R, sr.m.K, gemmec.ErrTooFewShards)
	}
	return nil
}

func (sr *StreamReader) decodeSize(dst io.Writer, workers int, size int64) (gemmec.StreamStats, error) {
	return sr.decodeFrom(dst, workers, 0, size)
}

// decodeFrom runs the decode pipeline over `size` payload bytes starting
// at manifest stripe `base` (the shard readers must already be positioned
// there — see seekToStripe). Stripe numbers reported by the pipeline are
// rebased into manifest coordinates for both verification and demotion
// records.
func (sr *StreamReader) decodeFrom(dst io.Writer, workers int, base, size int64) (gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	code, err := sr.opt.code(sr.m.K, sr.m.R, sr.m.UnitSize)
	if err != nil {
		return st, err
	}
	out := getBufWriter(dst)
	defer putBufWriter(out)
	opts := append(sr.opt.streamOpts(sr.m.K, sr.m.R, sr.m.UnitSize, workers),
		gemmec.WithStreamStats(&st), gemmec.WithStreamContext(sr.opt.context()))
	if sr.m.StripeVerified() {
		opts = append(opts, gemmec.WithStreamVerifier(&stripeVerifier{sums: sr.m.StripeSums, base: base}))
	}
	sp := obs.StartSpan(sr.opt.context(), "shardfile.decode")
	err = code.DecodeStream(sr.readers, out, size, opts...)
	sp.SetArg(st.Stripes)
	sp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	sp.End(err)
	for i := range st.Demoted {
		st.Demoted[i].Stripe += base
	}
	sr.recordDemotions(st.Demoted)
	if err != nil {
		return st, err
	}
	return st, out.Flush()
}

// ErrWindowDone terminates a range decode the moment the window's last
// byte has been written: WindowWriter returns it once the window closes,
// the pipeline's write stage treats it like any write failure and stops,
// and DecodeRange recognizes it as success. Without it a decode whose
// size overshoots the window (a caller that did not trim size to the last
// covering stripe) would stream — and reconstruct, and verify — every
// byte to the end of the object just to discard it. Exported (with
// WindowWriter) for callers that run DecodeStream over a window
// themselves — the cluster gateway's ranged remote reads.
var ErrWindowDone = errors.New("shardfile: range window complete")

// WindowWriter passes through only bytes [skip, skip+length) of the
// stream written to it, discarding bytes before the window and stopping
// the producer (via ErrWindowDone) once the window is full.
type WindowWriter struct {
	dst  io.Writer
	skip int64 // bytes still to discard before the window
	n    int64 // window bytes still to pass through
}

// NewWindowWriter returns a writer forwarding bytes [skip, skip+length)
// of whatever is written through it to dst.
func NewWindowWriter(dst io.Writer, skip, length int64) *WindowWriter {
	return &WindowWriter{dst: dst, skip: skip, n: length}
}

// Remaining reports how many window bytes have not yet been written — a
// decode that ends cleanly with Remaining() > 0 came up short.
func (w *WindowWriter) Remaining() int64 { return w.n }

func (w *WindowWriter) Write(p []byte) (int, error) {
	total := len(p)
	if w.skip > 0 {
		if int64(len(p)) <= w.skip {
			w.skip -= int64(len(p))
			return total, nil
		}
		p = p[w.skip:]
		w.skip = 0
	}
	if w.n > 0 && len(p) > 0 {
		take := int64(len(p))
		if take > w.n {
			take = w.n
		}
		if _, err := w.dst.Write(p[:take]); err != nil {
			return 0, err
		}
		w.n -= take
	}
	if w.n == 0 {
		// Window complete: accept the tail bytes of this write (they are
		// legitimately discarded) but stop the producer.
		return total, ErrWindowDone
	}
	return total, nil
}

// recordDemotions folds mid-stream demotions into the reader's unusable
// and corrupt sets, so post-decode inspection sees the final shard state.
func (sr *StreamReader) recordDemotions(dems []gemmec.Demotion) {
	for _, d := range dems {
		sr.demoted = append(sr.demoted, d)
		sr.unusable = appendShard(sr.unusable, d.Shard)
		if errors.Is(d.Cause, ecerr.ErrCorruptShard) {
			sr.corrupt = appendShard(sr.corrupt, d.Shard)
		}
	}
}

// appendShard adds i to the sorted index set if absent.
func appendShard(set []int, i int) []int {
	for _, v := range set {
		if v == i {
			return set
		}
	}
	set = append(set, i)
	sortInts(set)
	return set
}

// OpenStreamPaths opens the shard files of one manifest. For v2
// (stripe-checksummed) manifests the open is O(1) per shard: existence
// and length are checked (a stat, no reads), and content verification is
// deferred to Decode, which checks every unit's CRC32C inside the decode
// pass itself — each shard byte is read exactly once, and the first
// payload byte costs one stripe of I/O instead of a whole-object hashing
// barrier. For legacy v1 manifests recording whole-shard checksums, each
// present shard is still SHA-256-verified up front, in parallel (one
// goroutine per shard).
//
// Shards that are missing, truncated, or (v1) checksum-corrupt are
// treated as erased; if fewer than k usable shards remain the returned
// error wraps gemmec.ErrTooFewShards (and gemmec.ErrCorruptShard when
// verification failures contributed), so callers classify "disk lied" vs
// "disk lost" with errors.Is.
//
// opt is remembered by the returned reader: its Ctx and ShardReadTimeout
// govern the later Decode (see StreamReader.Decode), its FS is where the
// shards are opened.
func OpenStreamPaths(paths []string, m Manifest, opt Opts) (*StreamReader, error) {
	sp := obs.StartSpan(opt.context(), "shardfile.open")
	sr, err := openStreamPaths(paths, m, opt)
	sp.End(err)
	return sr, err
}

func openStreamPaths(paths []string, m Manifest, opt Opts) (*StreamReader, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	n := m.K + m.R
	if len(paths) != n {
		return nil, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), n)
	}
	fsys := opt.fs()
	sr := &StreamReader{
		m:       m,
		opt:     opt,
		readers: make([]io.Reader, n),
		files:   make([]vfs.File, n),
	}
	want := int64(m.Stripes) * int64(m.UnitSize)
	corruptAt := make([]bool, n)
	for i, p := range paths {
		f, err := fsys.Open(p)
		if err != nil {
			continue // missing: files[i] stays nil
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			sr.Close()
			return nil, err
		}
		if fi.Size() != want {
			f.Close()
			corruptAt[i] = true
			continue
		}
		sr.files[i] = f
	}

	// Legacy v1 manifests still pay the whole-shard SHA-256 pre-read; run
	// the shards concurrently so the open costs one shard's scan time, not
	// k+r of them. Each goroutine owns only its slot of errs/bad.
	if !m.StripeVerified() && m.Checksums != nil {
		errs := make([]error, n)
		bad := make([]bool, n)
		var wg sync.WaitGroup
		for i, f := range sr.files {
			if f == nil {
				continue
			}
			wg.Add(1)
			go func(i int, f vfs.File) {
				defer wg.Done()
				h := sha256.New()
				if _, err := io.Copy(h, f); err != nil {
					errs[i] = err
					return
				}
				if hex.EncodeToString(h.Sum(nil)) != m.Checksums[i] {
					bad[i] = true
					return
				}
				_, errs[i] = f.Seek(0, io.SeekStart)
			}(i, f)
		}
		wg.Wait()
		for i := range sr.files {
			if errs[i] != nil {
				sr.Close()
				return nil, errs[i]
			}
			if bad[i] {
				sr.files[i].Close()
				sr.files[i] = nil
				corruptAt[i] = true
			}
		}
	}

	for i, f := range sr.files {
		if f == nil {
			sr.unusable = append(sr.unusable, i)
			if corruptAt[i] {
				sr.corrupt = append(sr.corrupt, i)
			}
			continue
		}
		var rd io.Reader = f
		if opt.ShardReadTimeout > 0 {
			// The guard goes under bufio so its deadline and copy are paid
			// once per streamBufSize refill, not once per unit.
			g := newStallGuard(f, i, opt.ShardReadTimeout)
			sr.guards = append(sr.guards, g)
			rd = g
		}
		br := getBufReader(rd)
		sr.bufrs = append(sr.bufrs, br)
		sr.readers[i] = br
	}
	if usable := n - len(sr.unusable); usable < m.K {
		sr.Close()
		if len(sr.corrupt) > 0 {
			return nil, fmt.Errorf("shardfile: shards %v failed verification (%w); only %d of %d usable, need k=%d: %w",
				sr.corrupt, gemmec.ErrCorruptShard, usable, n, m.K, gemmec.ErrTooFewShards)
		}
		return nil, fmt.Errorf("shardfile: only %d of %d shards usable (missing %v), need k=%d: %w",
			usable, n, sr.unusable, m.K, gemmec.ErrTooFewShards)
	}
	return sr, nil
}

// ReadStreamPaths decodes the shard files at paths to dst, verifying every
// present shard against the manifest first (see OpenStreamPaths) and
// reconstructing unusable shards' data on the fly. It returns the indices
// of the shards it had to treat as erased and the pipeline stats.
func ReadStreamPaths(paths []string, m Manifest, dst io.Writer, workers int, opt Opts) ([]int, gemmec.StreamStats, error) {
	sr, err := OpenStreamPaths(paths, m, opt)
	if err != nil {
		return nil, gemmec.StreamStats{}, err
	}
	defer sr.Close()
	st, err := sr.Decode(dst, workers)
	return sr.Unusable(), st, err
}

// ReadStream decodes dir's shard set to dst, reconstructing lost or
// corrupt data shards on the fly (without rewriting the damaged shard
// files — use Repair or Scrub for that). Every present shard is verified
// against the manifest's length and SHA-256 before decoding, so silent
// corruption is reconstructed around instead of served; when too many
// shards are damaged the error wraps gemmec.ErrTooFewShards (and
// gemmec.ErrCorruptShard if checksum failures contributed). It returns the
// manifest, the indices of the shards treated as erased, and the pipeline
// stats.
func ReadStream(dir string, dst io.Writer, workers int) (Manifest, []int, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m, err := LoadManifest(dir)
	if err != nil {
		return m, nil, st, err
	}
	paths := make([]string, m.K+m.R)
	for i := range paths {
		paths[i] = ShardPath(dir, i)
	}
	bad, st, err := ReadStreamPaths(paths, m, dst, workers, Opts{})
	return m, bad, st, err
}
