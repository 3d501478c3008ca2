// Package pipeline is the streaming engine behind the public
// EncodeStream/DecodeStream API. The paper's §5 argument is that an EC
// library wins or loses on integration: the compiled kernel is only as
// fast as the loop that feeds it contiguous stripes. This package has one
// such loop for both directions, split into stages and drivers.
//
// A stage is one coding direction, expressed as three steps over a stripe
// buffer (a ring slot drawn from a stripe.Pool):
//
//	fill   — the encoder reads and zero-pads a data stripe from src; the
//	         decoder gathers k+r shard units (nil readers mark losses),
//	         verifying each as it lands (Config.Verify) and demoting
//	         shards that fail — checksum mismatch, truncation, read
//	         error — to erased mid-stream instead of failing the read
//	kernel — the encoder computes parity; the decoder reconstructs the
//	         missing data units, only for stripes that lost one
//	emit   — the encoder scatters the k+r units to the shard writers; the
//	         decoder writes the data units to dst, trimmed to the payload
//
// A driver runs a stage over the whole stream, and there are two. The
// ring driver overlaps the steps over a bounded ring of slots: a reader
// goroutine fills slots, kernels run as tasks on an internal/sched
// scheduler (one shared pool serves every stream of a server), and the
// calling goroutine emits finished stripes strictly in stripe order, so
// output is byte-identical however the tasks interleave. The inline
// driver runs fill, kernel and emit back to back on the caller's
// goroutine over one slot, with no goroutines at all. Config.Sched == nil
// is the one test that picks the inline driver.
//
// Backpressure falls out of the ring: at most Depth stripes are in flight,
// so every channel send below is non-blocking by construction (each
// channel's capacity is Depth) and the only blocking points are ring
// acquisition, source reads, kernel runs and sink writes — exactly the
// quantities Stats reports.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"time"

	"gemmec/internal/ecerr"
	"gemmec/internal/sched"
	"gemmec/internal/stripe"
)

// readLabelCtx carries the pprof labels for the per-stream reader
// goroutines (source/shard I/O plus verification). Built once so
// attaching labels on the hot path is a pointer store, not an
// allocation; kernel time is labeled separately by the scheduler's
// workers (op=sched).
var readLabelCtx = func() context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("op", "pipeline", "stage", "read"))
}()

// Codec is the coding subset the pipeline drives. The public *gemmec.Code
// satisfies it.
type Codec interface {
	K() int
	R() int
	UnitSize() int
	Encode(data, parity []byte) error
	ReconstructData(units [][]byte) error
}

// UnitVerifier checks one shard unit as it enters the decode ring.
// VerifyUnit is called from the reader stage with the shard index, the
// stripe sequence number and the unit bytes just read; a non-nil return
// demotes the shard to erased from that stripe on (the error becomes the
// demotion's cause — wrap ecerr.ErrCorruptShard for checksum mismatches so
// errors.Is classification survives). Implementations are called from a
// single goroutine per stream and must not retain unit. The clean path
// must not allocate: verification runs once per unit on the decode hot
// path.
type UnitVerifier interface {
	VerifyUnit(shard int, stripe int64, unit []byte) error
}

// Config sizes one pipeline run.
type Config struct {
	// Sched, when non-nil, runs the kernel step: the run creates one
	// stream queue on it and closes that queue before returning; the
	// scheduler itself belongs to the caller. Nil selects the inline
	// driver — one slot, no goroutines.
	Sched *sched.Scheduler
	// Depth is the ring size: the maximum number of stripes in flight.
	Depth int
	// Pool supplies the ring's stripe buffers. Its geometry must be
	// (k+r) x UnitSize — one buffer holds a full stripe, data then parity.
	// When nil, a private pool is created for the run. Sharing one pool
	// across streams of the same code keeps steady-state streaming
	// allocation-free.
	Pool *stripe.Pool
	// Verify, when non-nil, checks every shard unit as the decode reader
	// gathers it (encode ignores it). Failing units demote their shard —
	// see Stats.Demoted — instead of failing the stream.
	Verify UnitVerifier
	// Ctx cancels the run: the drivers observe it between stripes (the
	// inline driver checks it per stripe; the ring driver latches it into
	// the failure broadcast), so a canceled stream stops coding, stops
	// writing, releases its ring and returns an error wrapping
	// context.Cause within one stripe's worth of work. Nil means
	// context.Background() — never canceled.
	Ctx context.Context
}

// Stats reports what one pipeline run did and where it waited. The stall
// times attribute the bottleneck: a stream dominated by ReadStall or
// WriteStall is I/O-bound; one dominated by EncodeStall is compute-bound
// and benefits from more workers.
type Stats struct {
	// Stripes is the number of full stripes pushed through the kernel.
	Stripes int64
	// BytesIn is the number of payload bytes consumed from the source
	// (encode) or emitted to dst (decode, where it equals BytesOut).
	BytesIn int64
	// BytesOut is the number of bytes written to the sink side: shard
	// writers for encode, dst for decode.
	BytesOut int64
	// Workers and Depth echo the effective pipeline shape: Workers is the
	// scheduler's pool size, or 1 on the inline driver.
	Workers int
	Depth   int
	// ReadStall is time blocked reading the input side (src for encode,
	// shard readers for decode) — input I/O bound.
	ReadStall time.Duration
	// EncodeStall is time the in-order writer waited for the next stripe
	// to come out of the kernel stage (on the inline driver: kernel time
	// itself) — compute bound.
	EncodeStall time.Duration
	// WriteStall is time blocked writing the output side — output I/O
	// bound.
	WriteStall time.Duration
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// Demoted records the shards demoted to erased mid-stream (decode
	// only): a shard whose unit failed verification, truncated, or errored
	// on read is reconstructed around for all subsequent stripes instead
	// of failing the stream. Empty on clean runs. Populated on success and
	// on error alike, so a stream that ultimately fell below k survivors
	// still reports every demotion that led there.
	Demoted []ecerr.Demotion
}

// slot is one ring entry: a pooled stripe buffer, the per-slot unit
// pointer table the decoder hands to ReconstructData, the metadata of
// the stripe currently occupying the slot, and one preallocated kernel
// task bound to the slot. Carrying the stripe state in the slot (instead
// of a per-stripe job struct captured by a fresh closure) is what keeps
// the ring driver allocation-free per stripe: the reader writes
// seq/n/rebuild before submitting s.run, and the channel/scheduler
// handoffs order those writes against the task and the in-order writer.
type slot struct {
	buf  *stripe.Buffer
	work [][]byte

	seq     int64
	n       int64  // decode: payload bytes this stripe emits
	rebuild bool   // decode: some data unit of this stripe is missing
	run     func() // kernel task; built once per run at ring setup
}

// stage is one coding direction. A driver calls fill from one goroutine
// in stripe order (s.seq is already set), kernel from any goroutine, and
// emit from one goroutine in stripe order. fill reports false, with no
// stripe loaded, once the stream is exhausted; emit returns the bytes it
// wrote.
type stage interface {
	fill(s *slot) (bool, error)
	kernel(s *slot) error
	emit(s *slot) (int64, error)
}

// ctxErr wraps a context's cancellation cause into the stream error the
// caller sees; errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both survive the wrap.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("gemmec: stream canceled: %w", context.Cause(ctx))
}

// norm validates cfg against the codec geometry and fills defaults.
func norm(c Codec, cfg Config) (Config, error) {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	if cfg.Depth < 1 {
		return cfg, fmt.Errorf("pipeline: depth must be >= 1, have %d", cfg.Depth)
	}
	total, unit := c.K()+c.R(), c.UnitSize()
	if cfg.Pool == nil {
		p, err := stripe.NewPool(total, unit)
		if err != nil {
			return cfg, err
		}
		cfg.Pool = p
	} else if cfg.Pool.K() != total || cfg.Pool.UnitSize() != unit {
		return cfg, fmt.Errorf("pipeline: pool geometry %dx%d, want (k+r)x unit = %dx%d",
			cfg.Pool.K(), cfg.Pool.UnitSize(), total, unit)
	}
	return cfg, nil
}

// drive runs sg to completion on the driver cfg.Sched selects. one is the
// stage's own slot for the inline driver; drive lends it a pool buffer.
func drive(sg stage, one *slot, cfg Config) (Stats, error) {
	st := Stats{Workers: 1, Depth: cfg.Depth}
	start := time.Now()
	var err error
	if cfg.Sched == nil {
		err = runInline(sg, one, cfg, &st)
	} else {
		st.Workers = cfg.Sched.Workers()
		err = runRing(sg, cfg, &st)
	}
	st.Elapsed = time.Since(start)
	return st, err
}

// runInline is the goroutine-free driver: fill, kernel and emit back to
// back over one slot.
func runInline(sg stage, s *slot, cfg Config, st *Stats) error {
	buf, err := cfg.Pool.Get()
	if err != nil {
		return err
	}
	defer cfg.Pool.Put(buf) //nolint:errcheck // geometry matches by construction
	s.buf = buf
	for seq := int64(0); ; seq++ {
		if cfg.Ctx.Err() != nil {
			return ctxErr(cfg.Ctx)
		}
		s.seq = seq
		if ok, err := sg.fill(s); !ok || err != nil {
			return err
		}
		t0 := time.Now()
		if err := sg.kernel(s); err != nil {
			return err
		}
		st.EncodeStall += time.Since(t0)
		t1 := time.Now()
		n, err := sg.emit(s)
		st.WriteStall += time.Since(t1)
		if err != nil {
			return err
		}
		st.Stripes++
		st.BytesOut += n
	}
}

// failer latches the first error and broadcasts cancellation.
type failer struct {
	once sync.Once
	err  error
	done chan struct{}
}

func (f *failer) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

func (f *failer) failed() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// runRing is the overlapped driver: a reader goroutine fills ring slots
// and submits each slot's kernel task to a stream queue on cfg.Sched, and
// this goroutine emits finished stripes in stripe order.
func runRing(sg stage, cfg Config, st *Stats) error {
	f := &failer{done: make(chan struct{})}
	free := make(chan *slot, cfg.Depth)
	results := make(chan *slot, cfg.Depth)
	slots := make([]*slot, 0, cfg.Depth)
	defer func() {
		for _, s := range slots {
			cfg.Pool.Put(s.buf) //nolint:errcheck // geometry matches by construction
		}
	}()
	// One kernel task per ring slot, built before traffic: the reader only
	// stamps the slot and submits, so steady-state stripes allocate
	// nothing.
	for len(slots) < cfg.Depth {
		b, err := cfg.Pool.Get()
		if err != nil {
			return err
		}
		s := &slot{buf: b, work: make([][]byte, cfg.Pool.K())}
		s.run = func() {
			if f.failed() {
				return // drain without coding
			}
			if err := sg.kernel(s); err != nil {
				f.fail(err)
				return
			}
			results <- s
		}
		slots = append(slots, s)
		free <- s
	}
	// Cancellation rides the failure broadcast: the moment the context
	// dies, every stage sees f.done and drains. AfterFunc costs nothing on
	// the clean path (no goroutine until cancellation).
	stop := context.AfterFunc(cfg.Ctx, func() { f.fail(ctxErr(cfg.Ctx)) })
	defer stop()

	// At most Depth stripes are in flight — ring slots bound the
	// submissions — so the results send inside a task never blocks a pool
	// worker.
	q := cfg.Sched.NewQueue()
	defer q.Close()

	// Reader: sequential by nature (src and the shard readers are streams),
	// so the stage's fill-side state is owned by this goroutine until the
	// final wait establishes happens-before.
	var wgRead sync.WaitGroup
	wgRead.Add(1)
	go func() {
		defer wgRead.Done()
		defer close(results)
		defer q.Wait() // every submitted task finishes before results closes
		// Label context precomputed at package init: attaching it is a
		// pointer store, keeping the per-call reader allocation-free.
		pprof.SetGoroutineLabels(readLabelCtx)
		for seq := int64(0); ; seq++ {
			var s *slot
			select {
			case s = <-free:
			case <-f.done:
				return
			}
			s.seq = seq
			ok, err := sg.fill(s)
			if err != nil {
				f.fail(err)
				return
			}
			if !ok {
				return
			}
			q.Submit(s.run)
		}
	}()

	// In-order writer (this goroutine): reorder by sequence number so the
	// output is byte-identical to the inline driver regardless of worker
	// completion order.
	pending := make(map[int64]*slot, cfg.Depth)
	var next int64
	for {
		t0 := time.Now()
		s, ok := <-results
		st.EncodeStall += time.Since(t0)
		if !ok {
			break
		}
		pending[s.seq] = s
		for {
			ss, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if !f.failed() {
				t1 := time.Now()
				n, werr := sg.emit(ss)
				st.WriteStall += time.Since(t1)
				if werr != nil {
					f.fail(werr)
				} else {
					st.Stripes++
					st.BytesOut += n
				}
			}
			free <- ss // cap == Depth: never blocks
		}
	}
	wgRead.Wait()
	return f.err
}

// Encode streams src through the codec into the k+r shard writers and
// returns the payload byte count. The caller must have validated shards
// (length k+r, no nils); the length is rechecked here.
func Encode(c Codec, src io.Reader, shards []io.Writer, cfg Config) (int64, Stats, error) {
	cfg, err := norm(c, cfg)
	if err != nil {
		return 0, Stats{}, err
	}
	if len(shards) != c.K()+c.R() {
		return 0, Stats{}, fmt.Errorf("pipeline: %d shard writers, want k+r=%d", len(shards), c.K()+c.R())
	}
	if cfg.Ctx.Err() != nil {
		return 0, Stats{}, ctxErr(cfg.Ctx)
	}
	e := &encoder{c: c, k: c.K(), unit: c.UnitSize(), src: src, shards: shards}
	st, err := drive(e, &e.one, cfg)
	st.ReadStall, st.BytesIn = e.stall, e.in
	return e.in, st, err
}

// encoder is the encode stage: src → padded data stripe → parity → k+r
// shard writers.
type encoder struct {
	c       Codec
	k, unit int
	src     io.Reader
	shards  []io.Writer

	// Fill-side state, owned by the driver's reader.
	in    int64         // payload bytes consumed from src
	eof   bool          // src ended inside the last stripe read
	stall time.Duration // time blocked reading src
	one   slot          // the inline driver's slot
}

func (e *encoder) fill(s *slot) (bool, error) {
	if e.eof {
		return false, nil
	}
	data := s.buf.Raw()[:e.k*e.unit]
	t0 := time.Now()
	n, err := io.ReadFull(e.src, data)
	e.stall += time.Since(t0)
	e.in += int64(n)
	switch {
	case errors.Is(err, io.EOF):
		return false, nil // clean end on a stripe boundary
	case errors.Is(err, io.ErrUnexpectedEOF):
		clear(data[n:]) // padded final stripe
		e.eof = true
	case err != nil:
		return false, fmt.Errorf("gemmec: read source: %w", err)
	}
	return true, nil
}

func (e *encoder) kernel(s *slot) error {
	raw := s.buf.Raw()
	return e.c.Encode(raw[:e.k*e.unit], raw[e.k*e.unit:len(e.shards)*e.unit])
}

// emit scatters the k data units and r parity units of the stripe to the
// shard writers.
func (e *encoder) emit(s *slot) (int64, error) {
	raw := s.buf.Raw()
	for i, w := range e.shards {
		if _, err := w.Write(raw[i*e.unit : (i+1)*e.unit]); err != nil {
			return 0, fmt.Errorf("gemmec: write shard %d: %w", i, err)
		}
	}
	return int64(len(e.shards) * e.unit), nil
}

// Decode streams the shard readers through the codec into dst, emitting
// exactly size payload bytes. nil readers mark lost shards; lost data
// shards are reconstructed. The caller validates reader count and survivor
// count; geometry is rechecked here.
func Decode(c Codec, shards []io.Reader, dst io.Writer, size int64, cfg Config) (Stats, error) {
	cfg, err := norm(c, cfg)
	if err != nil {
		return Stats{}, err
	}
	if len(shards) != c.K()+c.R() {
		return Stats{}, fmt.Errorf("pipeline: %d shard readers, want k+r=%d", len(shards), c.K()+c.R())
	}
	if size < 0 {
		return Stats{}, fmt.Errorf("pipeline: negative stream size %d", size)
	}
	if cfg.Ctx.Err() != nil {
		return Stats{}, ctxErr(cfg.Ctx)
	}
	d := &decoder{
		demoter:   newDemoter(shards, c.K(), c.UnitSize(), cfg.Verify),
		c:         c,
		dst:       dst,
		remaining: size,
		one:       slot{work: make([][]byte, len(shards))},
	}
	st, err := drive(d, &d.one, cfg)
	st.ReadStall, st.Demoted, st.BytesIn = d.stall, d.demoted, st.BytesOut
	return st, err
}

// decoder is the decode stage: k+r shard streams → verified units →
// reconstructed data units → dst.
type decoder struct {
	demoter
	c   Codec
	dst io.Writer

	// Fill-side state, owned by the driver's reader.
	remaining int64         // payload bytes not yet assigned to a stripe
	stall     time.Duration // time blocked reading shard streams
	one       slot          // the inline driver's slot
}

func (d *decoder) fill(s *slot) (bool, error) {
	if d.remaining == 0 {
		return false, nil
	}
	rebuild, err := d.fillSlot(s, &d.stall)
	if err != nil {
		return false, err
	}
	s.n = min(d.remaining, int64(d.k*d.unit))
	s.rebuild = rebuild
	d.remaining -= s.n
	return true, nil
}

// kernel reconstructs the stripe's missing data units; stripes whose data
// units all survived pass straight through.
func (d *decoder) kernel(s *slot) error {
	if !s.rebuild {
		return nil
	}
	return d.c.ReconstructData(s.work)
}

// emit writes the stripe's data units to dst, trimming the final stripe
// to the remaining payload length.
func (d *decoder) emit(s *slot) (int64, error) {
	left := s.n
	for i := 0; i < d.k && left > 0; i++ {
		u := s.work[i][:min(left, int64(d.unit))]
		if _, err := d.dst.Write(u); err != nil {
			return 0, fmt.Errorf("gemmec: write output: %w", err)
		}
		left -= int64(len(u))
	}
	return s.n, nil
}

// demoter owns the decode reader's view of the shard streams: which are
// still trusted, which were demoted mid-stream, and whether enough
// survive to cover k. A shard that fails — unit checksum mismatch,
// truncation, read error — is demoted to erased from that stripe on: its
// units are reconstructed for the rest of the stream instead of failing
// the read. Exactly one goroutine (the driver's reader) uses a demoter, so
// it needs no locking; the driver's final join establishes
// happens-before for the demotions it records.
type demoter struct {
	shards  []io.Reader // the caller's readers; never written
	k, unit int
	verify  UnitVerifier
	alive   int
	demoted []ecerr.Demotion
}

func newDemoter(shards []io.Reader, k, unit int, verify UnitVerifier) demoter {
	d := demoter{shards: shards, k: k, unit: unit, verify: verify}
	for _, rd := range shards {
		if rd != nil {
			d.alive++
		}
	}
	return d
}

// trusted reports whether shard i is present and not demoted.
func (d *demoter) trusted(i int) bool {
	if d.shards[i] == nil {
		return false
	}
	for _, dm := range d.demoted {
		if dm.Shard == i {
			return false
		}
	}
	return true
}

// demote marks shard i erased from stripe on. It returns nil while enough
// shards survive to keep decoding, and the terminal error — wrapping the
// Demotion (hence ErrShardDemoted and the cause) and ErrTooFewShards —
// once the survivor count drops below k.
func (d *demoter) demote(i int, stripe int64, cause error) error {
	d.alive--
	d.demoted = append(d.demoted, ecerr.Demotion{Shard: i, Stripe: stripe, Cause: cause})
	if d.alive < d.k {
		return fmt.Errorf("gemmec: only %d of %d shard streams still usable (need k=%d): %w: %w",
			d.alive, len(d.shards), d.k, d.demoted[len(d.demoted)-1], ecerr.ErrTooFewShards)
	}
	return nil
}

// fillSlot reads stripe s.seq's units from the trusted shard streams into
// the slot, verifying each unit as it lands and demoting shards that fail
// instead of failing the stream. It reports whether the stripe needs
// reconstruction (some data unit is missing); err is non-nil only when
// demotions leave fewer than k usable shards.
func (d *demoter) fillSlot(s *slot, stall *time.Duration) (rebuild bool, err error) {
	raw := s.buf.Raw()
	for i, rd := range d.shards {
		s.work[i] = nil
		if !d.trusted(i) {
			continue
		}
		u := raw[i*d.unit : (i+1)*d.unit]
		t0 := time.Now()
		_, rerr := io.ReadFull(rd, u)
		*stall += time.Since(t0)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				rerr = fmt.Errorf("gemmec: shard %d truncated at stripe %d: %w (%w)", i, s.seq, ecerr.ErrShardTruncated, ecerr.ErrCorruptShard)
			} else {
				rerr = fmt.Errorf("gemmec: read shard %d: %w", i, rerr)
			}
			if err := d.demote(i, s.seq, rerr); err != nil {
				return false, err
			}
			continue
		}
		if d.verify != nil {
			if verr := d.verify.VerifyUnit(i, s.seq, u); verr != nil {
				if err := d.demote(i, s.seq, verr); err != nil {
					return false, err
				}
				continue
			}
		}
		s.work[i] = u
	}
	for _, u := range s.work[:d.k] {
		if u == nil {
			return true, nil
		}
	}
	return false, nil
}
