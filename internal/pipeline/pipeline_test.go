package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gemmec/internal/sched"
	"gemmec/internal/stripe"
)

// xorCodec is a trivial erasure code for exercising the pipeline without
// the real engine: parity unit j is the XOR of all data units, rotated
// left by j bytes so the r parity units differ. A single lost data unit is
// reconstructable from parity 0 and the surviving data units. The optional
// jitter sleeps a pseudorandom time per Encode so concurrent workers
// finish out of order, stressing the in-order writer.
type xorCodec struct {
	k, r, unit int
	jitter     time.Duration
	encodeErr  error // returned by Encode when set
	mu         sync.Mutex
	rng        *rand.Rand
}

func newXorCodec(k, r, unit int) *xorCodec {
	return &xorCodec{k: k, r: r, unit: unit, rng: rand.New(rand.NewSource(1))}
}

func (c *xorCodec) K() int        { return c.k }
func (c *xorCodec) R() int        { return c.r }
func (c *xorCodec) UnitSize() int { return c.unit }

func (c *xorCodec) sleep() {
	if c.jitter <= 0 {
		return
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.jitter)))
	c.mu.Unlock()
	time.Sleep(d)
}

func (c *xorCodec) Encode(data, parity []byte) error {
	if c.encodeErr != nil {
		return c.encodeErr
	}
	c.sleep()
	base := make([]byte, c.unit)
	for u := 0; u < c.k; u++ {
		for b := 0; b < c.unit; b++ {
			base[b] ^= data[u*c.unit+b]
		}
	}
	for j := 0; j < c.r; j++ {
		for b := 0; b < c.unit; b++ {
			parity[j*c.unit+b] = base[(b+j)%c.unit]
		}
	}
	return nil
}

func (c *xorCodec) ReconstructData(units [][]byte) error {
	c.sleep()
	lost := -1
	for i := 0; i < c.k; i++ {
		if units[i] == nil {
			if lost >= 0 {
				return fmt.Errorf("xorCodec: can only rebuild one data unit")
			}
			lost = i
		}
	}
	if lost < 0 {
		return nil
	}
	p0 := units[c.k]
	if p0 == nil {
		return fmt.Errorf("xorCodec: parity 0 lost too")
	}
	out := make([]byte, c.unit)
	copy(out, p0)
	for i := 0; i < c.k; i++ {
		if i == lost {
			continue
		}
		for b := 0; b < c.unit; b++ {
			out[b] ^= units[i][b]
		}
	}
	units[lost] = out
	return nil
}

func sinkSet(n int) ([]*bytes.Buffer, []io.Writer) {
	sinks := make([]*bytes.Buffer, n)
	writers := make([]io.Writer, n)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	return sinks, writers
}

// workerSched returns a scheduler with n workers, closed when the test
// ends, or nil (the inline driver) for n == 1.
func workerSched(t *testing.T, n int) *sched.Scheduler {
	if n == 1 {
		return nil
	}
	s := sched.New(sched.Config{Workers: n})
	t.Cleanup(s.Close)
	return s
}

func payload(seed int64, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// TestEncodeOrderIdentical: with jittered encode latency and many workers,
// shard output must be byte-identical to the serial path — the in-order
// writer reorders by sequence number.
func TestEncodeOrderIdentical(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	src := payload(7, 23*c.k*c.unit+17) // 24 stripes, padded tail
	serialSinks, serialWriters := sinkSet(6)
	nSerial, _, err := Encode(c, bytes.NewReader(src), serialWriters, Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}

	c.jitter = 200 * time.Microsecond
	pipeSinks, pipeWriters := sinkSet(6)
	nPipe, st, err := Encode(c, bytes.NewReader(src), pipeWriters, Config{Sched: workerSched(t, 6), Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if nSerial != nPipe || nPipe != int64(len(src)) {
		t.Fatalf("consumed serial=%d pipe=%d want %d", nSerial, nPipe, len(src))
	}
	if st.Stripes != 24 {
		t.Fatalf("stats report %d stripes, want 24", st.Stripes)
	}
	for i := range serialSinks {
		if !bytes.Equal(serialSinks[i].Bytes(), pipeSinks[i].Bytes()) {
			t.Fatalf("shard %d differs between serial and pipelined encode", i)
		}
	}
}

// TestDecodeRoundTrip: encode, lose a data shard and a parity shard,
// decode through the pipeline with jittered reconstruction.
func TestDecodeRoundTrip(t *testing.T) {
	c := newXorCodec(5, 2, 32)
	src := payload(9, 11*c.k*c.unit+5)
	sinks, writers := sinkSet(7)
	n, _, err := Encode(c, bytes.NewReader(src), writers, Config{Sched: workerSched(t, 2), Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.jitter = 150 * time.Microsecond
	for _, workers := range []int{1, 4} {
		readers := make([]io.Reader, 7)
		for i := range readers {
			readers[i] = bytes.NewReader(sinks[i].Bytes())
		}
		readers[2] = nil // lost data shard: every stripe reconstructs
		readers[6] = nil // lost parity shard: irrelevant to decode
		var out bytes.Buffer
		st, err := Decode(c, readers, &out, n, Config{Sched: workerSched(t, workers), Depth: 2 * workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), src) {
			t.Fatalf("workers=%d: decoded stream differs", workers)
		}
		if st.BytesOut != int64(len(src)) {
			t.Fatalf("workers=%d: stats report %d bytes out, want %d", workers, st.BytesOut, len(src))
		}
	}
}

type errWriter struct{ after int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestEncodeFailurePaths: source, sink and kernel failures must surface
// (not hang) at every worker count, and the ring must drain cleanly.
func TestEncodeFailurePaths(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{Sched: workerSched(t, workers), Depth: 2 * workers}
		c := newXorCodec(3, 1, 16)
		stripeBytes := c.k * c.unit

		// Failing source after one clean stripe.
		_, writers := sinkSet(4)
		src := io.MultiReader(bytes.NewReader(make([]byte, stripeBytes)), errReader{errors.New("disk error")})
		if _, _, err := Encode(c, src, writers, cfg); err == nil {
			t.Errorf("workers=%d: source error swallowed", workers)
		}

		// Failing shard writer.
		_, writers = sinkSet(4)
		writers[2] = &errWriter{after: 1}
		if _, _, err := Encode(c, bytes.NewReader(make([]byte, 8*stripeBytes)), writers, cfg); err == nil {
			t.Errorf("workers=%d: writer error swallowed", workers)
		}

		// Failing kernel.
		c.encodeErr = errors.New("kernel fault")
		_, writers = sinkSet(4)
		if _, _, err := Encode(c, bytes.NewReader(make([]byte, 4*stripeBytes)), writers, cfg); err == nil {
			t.Errorf("workers=%d: encode error swallowed", workers)
		}
	}
}

// TestDecodeTruncated: a shard stream shorter than size errors out.
func TestDecodeTruncated(t *testing.T) {
	c := newXorCodec(3, 1, 16)
	for _, workers := range []int{1, 3} {
		readers := make([]io.Reader, 4)
		for i := range readers {
			readers[i] = bytes.NewReader(nil)
		}
		var out bytes.Buffer
		if _, err := Decode(c, readers, &out, 10, Config{Sched: workerSched(t, workers), Depth: workers}); err == nil {
			t.Errorf("workers=%d: truncated shard streams accepted", workers)
		}
	}
}

// TestConfigValidation: bad depth/pool geometry are rejected.
func TestConfigValidation(t *testing.T) {
	c := newXorCodec(3, 1, 16)
	_, writers := sinkSet(4)
	if _, _, err := Encode(c, bytes.NewReader(nil), writers, Config{Depth: 0}); err == nil {
		t.Error("depth=0 accepted")
	}
	wrong, err := stripe.NewPool(c.k, c.unit) // data-only geometry: too small
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Encode(c, bytes.NewReader(nil), writers, Config{Depth: 1, Pool: wrong}); err == nil {
		t.Error("wrong pool geometry accepted")
	}
	if _, _, err := Encode(c, bytes.NewReader(nil), writers[:3], Config{Depth: 1}); err == nil {
		t.Error("short writer slice accepted")
	}
}

// TestPoolReuse: repeated runs over a shared pool must not grow it beyond
// the ring depth — the allocation-free steady state.
func TestPoolReuse(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	pool, err := stripe.NewPool(c.k+c.r, c.unit)
	if err != nil {
		t.Fatal(err)
	}
	src := payload(3, 10*c.k*c.unit)
	cfg := Config{Sched: workerSched(t, 3), Depth: 4, Pool: pool}
	for i := 0; i < 5; i++ {
		_, writers := sinkSet(6)
		if _, _, err := Encode(c, bytes.NewReader(src), writers, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Allocated(); got > cfg.Depth {
		t.Fatalf("pool allocated %d buffers across runs, want <= depth %d", got, cfg.Depth)
	}
}

// TestConcurrentStreams: many goroutines stream through one codec and one
// shared pool at once; run under -race this is the pipeline stress test.
func TestConcurrentStreams(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	c.jitter = 50 * time.Microsecond
	pool, err := stripe.NewPool(c.k+c.r, c.unit)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 8
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := payload(int64(g), (5+g)*c.k*c.unit+g*13)
			sinks, writers := sinkSet(6)
			n, _, err := Encode(c, bytes.NewReader(src), writers, Config{Sched: workerSched(t, 3), Depth: 6, Pool: pool})
			if err != nil {
				errs <- err
				return
			}
			readers := make([]io.Reader, 6)
			for i := range readers {
				readers[i] = bytes.NewReader(sinks[i].Bytes())
			}
			readers[g%c.k] = nil
			var out bytes.Buffer
			if _, err := Decode(c, readers, &out, n, Config{Sched: workerSched(t, 3), Depth: 6, Pool: pool}); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out.Bytes(), src) {
				errs <- fmt.Errorf("stream %d corrupted", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
