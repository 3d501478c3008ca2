package gemmec

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"gemmec/internal/pipeline"
	"gemmec/internal/sched"
	"gemmec/internal/stripe"
)

// Streaming interface: encode an arbitrary-length stream into k+r shard
// streams and read it back, reconstructing from parity when data shard
// streams are missing. Stripes flow through one engine
// (internal/pipeline): with more than one worker, a bounded ring of
// pooled stripe buffers is filled by a reader stage, encoded (or
// reconstructed) on a scheduler's kernel workers, and drained by an
// in-order writer, so the compiled kernel (§5's integration argument) is
// never idle behind serial I/O; with one worker the same stages run
// inline on the caller's goroutine. Shard output is byte-identical
// regardless of worker count: the writer reorders stripes by sequence
// number.

// StreamStats reports what one stream call did and where it waited; see
// the field docs for how to read the stall times. Request it with
// WithStreamStats. Demoted lists the shards DecodeStream stopped trusting
// mid-stream (see WithStreamVerifier).
type StreamStats = pipeline.Stats

// UnitVerifier checks one shard unit as the decode reader gathers it; see
// WithStreamVerifier. Returning a non-nil error demotes the shard to
// erased from that stripe on.
type UnitVerifier = pipeline.UnitVerifier

// streamConfig collects StreamOption state.
type streamConfig struct {
	workers int
	depth   int
	sched   *Scheduler
	pool    *StripePool
	stats   *StreamStats
	verify  UnitVerifier
	ctx     context.Context
}

var errNilScheduler = fmt.Errorf("gemmec: stream scheduler is nil")

// StreamOption configures EncodeStream and DecodeStream. The zero-option
// call form uses the defaults documented on each option.
type StreamOption func(*streamConfig) error

// WithStreamWorkers sets how many stripes are encoded (or reconstructed)
// concurrently. 1 runs the stream inline on the caller's goroutine — no
// scheduler, no goroutines. n > 1 builds a private per-call scheduler
// with n workers, torn down when the call returns; streams that run side
// by side should share one pool via WithStreamScheduler instead, which
// overrides this option. The default is GOMAXPROCS capped at 8.
func WithStreamWorkers(n int) StreamOption {
	return func(c *streamConfig) error {
		if n < 1 {
			return fmt.Errorf("gemmec: stream workers must be >= 1, have %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithStreamDepth sets the pipeline depth: the maximum number of stripe
// buffers in flight between the reader and the in-order writer. It is
// clamped up to the worker count. The default is twice the worker count.
//
// Deprecated: depth still works — it bounds the stream's stripe ring
// under WithStreamScheduler too — but tuning it per call predates the
// shared-scheduler API and the default is right in practice. Kept as a
// thin compatibility wrapper.
func WithStreamDepth(n int) StreamOption {
	return func(c *streamConfig) error {
		if n < 1 {
			return fmt.Errorf("gemmec: stream depth must be >= 1, have %d", n)
		}
		c.depth = n
		return nil
	}
}

// WithStreamPool supplies the stripe-buffer pool the pipeline draws its
// ring from. The pool must come from NewStreamPool (geometry (k+r) x
// UnitSize). Sharing one pool across repeated or concurrent stream calls
// on the same code makes steady-state streaming allocation-free. By
// default each call uses a private pool.
func WithStreamPool(p *StripePool) StreamOption {
	return func(c *streamConfig) error {
		if p == nil {
			return fmt.Errorf("gemmec: stream pool is nil")
		}
		c.pool = p
		return nil
	}
}

// WithStreamStats records the call's pipeline statistics into *dst before
// returning (on success and on error alike).
func WithStreamStats(dst *StreamStats) StreamOption {
	return func(c *streamConfig) error {
		if dst == nil {
			return fmt.Errorf("gemmec: stream stats destination is nil")
		}
		c.stats = dst
		return nil
	}
}

// WithStreamVerifier makes DecodeStream verify every shard unit against v
// as the reader gathers it — integrity checking folded into the single
// decode pass, instead of a separate whole-shard hashing pass up front. A
// unit that fails is not served: its shard is demoted to erased from that
// stripe on and reconstructed around for the rest of the stream (the
// stream only fails, wrapping ErrShardDemoted and ErrTooFewShards, when
// fewer than k trusted shards remain). Demotions are reported in
// StreamStats.Demoted. EncodeStream ignores the option.
func WithStreamVerifier(v UnitVerifier) StreamOption {
	return func(c *streamConfig) error {
		if v == nil {
			return fmt.Errorf("gemmec: stream verifier is nil")
		}
		c.verify = v
		return nil
	}
}

// WithStreamContext cancels the stream when ctx does. The pipeline
// observes the context between stripes: a canceled encode stops reading
// and writing, a canceled decode stops reconstructing, all stage
// goroutines return, and the call fails with an error wrapping
// context.Cause(ctx) (so errors.Is against context.Canceled or
// context.DeadlineExceeded works). This is how a server threads a
// request's lifetime — client disconnect, per-request deadline, drain —
// down into the coding engine instead of letting abandoned streams run to
// completion. The default is context.Background(): never canceled.
func WithStreamContext(ctx context.Context) StreamOption {
	return func(c *streamConfig) error {
		if ctx == nil {
			return fmt.Errorf("gemmec: stream context is nil")
		}
		c.ctx = ctx
		return nil
	}
}

// NewStreamPool returns a stripe-buffer pool sized for this code's
// streaming pipeline: each buffer holds a full stripe, the k data units
// followed by the r parity units. Pass it to WithStreamPool.
func (c *Code) NewStreamPool() (*StripePool, error) {
	return stripe.NewPool(c.K()+c.R(), c.UnitSize())
}

func (c *Code) streamConfig(opts []StreamOption) (streamConfig, error) {
	cfg := streamConfig{}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	if cfg.workers == 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
		if cfg.workers > 8 {
			cfg.workers = 8
		}
	}
	if cfg.depth == 0 {
		cfg.depth = 2 * cfg.workers
	}
	return cfg, nil
}

// pipeline is the one place stream options become a driver choice: the
// shared scheduler when one is attached, the inline driver (no scheduler)
// for one worker, and otherwise a private scheduler with that many
// workers, returned so the caller closes it when the call ends.
func (cfg streamConfig) pipeline() (pc pipeline.Config, private *sched.Scheduler) {
	pc = pipeline.Config{Depth: max(cfg.depth, cfg.workers), Pool: cfg.pool, Verify: cfg.verify, Ctx: cfg.ctx}
	switch {
	case cfg.sched != nil:
		pc.Sched = cfg.sched.s
	case cfg.workers > 1:
		private = sched.New(sched.Config{Workers: cfg.workers})
		pc.Sched = private
	}
	return pc, private
}

// EncodeStream reads src until EOF, erasure-codes it stripe by stripe, and
// writes unit i of every stripe to shards[i]. shards must hold exactly k+r
// writers, none nil. The final stripe is zero-padded; callers must record
// the true length (the returned byte count) to trim on decode.
//
// With the default options encoding is pipelined across GOMAXPROCS (up to
// 8) kernel workers; shard output is byte-identical to the inline
// one-worker run. Tune with WithStreamScheduler, WithStreamWorkers and
// WithStreamPool, and observe the pipeline with WithStreamStats.
func (c *Code) EncodeStream(src io.Reader, shards []io.Writer, opts ...StreamOption) (int64, error) {
	k, r := c.K(), c.R()
	if len(shards) != k+r {
		return 0, fmt.Errorf("%w: have %d writers, want k+r=%d", ErrShardStreams, len(shards), k+r)
	}
	for i, w := range shards {
		if w == nil {
			return 0, fmt.Errorf("%w: writer %d is nil", ErrShardStreams, i)
		}
	}
	cfg, err := c.streamConfig(opts)
	if err != nil {
		return 0, err
	}
	pc, private := cfg.pipeline()
	if private != nil {
		defer private.Close()
	}
	n, st, err := pipeline.Encode(c, src, shards, pc)
	if cfg.stats != nil {
		*cfg.stats = st
	}
	return n, err
}

// DecodeStream reads shard streams and writes the original data to dst,
// stopping after size bytes (the length EncodeStream returned). shards must
// hold k+r readers; nil entries mark lost shards. At least k readers must
// be non-nil. Lost data shards are reconstructed stripe by stripe from the
// surviving streams.
//
// A shard stream that fails mid-decode — read error, truncation, or (with
// WithStreamVerifier) a unit checksum mismatch — is demoted to erased from
// that stripe on and reconstructed around, so the decode survives anything
// an up-front verification pass would have caught, without the extra pass
// or the whole-object latency barrier. Demotions are reported in
// StreamStats.Demoted; the stream fails (wrapping ErrShardDemoted and
// ErrTooFewShards) only when fewer than k trusted streams remain.
//
// Decoding runs through the same pipeline as encoding (see EncodeStream);
// the same StreamOptions apply.
func (c *Code) DecodeStream(shards []io.Reader, dst io.Writer, size int64, opts ...StreamOption) error {
	k, r := c.K(), c.R()
	if len(shards) != k+r {
		return fmt.Errorf("%w: have %d readers, want k+r=%d", ErrShardStreams, len(shards), k+r)
	}
	present := 0
	for _, rd := range shards {
		if rd != nil {
			present++
		}
	}
	if present < k {
		return fmt.Errorf("%w: only %d of %d shard streams present (need k=%d): %w",
			ErrShardStreams, present, k+r, k, ErrTooFewShards)
	}
	if size < 0 {
		return fmt.Errorf("gemmec: negative stream size %d", size)
	}
	cfg, err := c.streamConfig(opts)
	if err != nil {
		return err
	}
	pc, private := cfg.pipeline()
	if private != nil {
		defer private.Close()
	}
	st, err := pipeline.Decode(c, shards, dst, size, pc)
	if cfg.stats != nil {
		*cfg.stats = st
	}
	return err
}
