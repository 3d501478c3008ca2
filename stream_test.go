package gemmec

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/iotest"
)

func streamRoundTrip(t *testing.T, c *Code, size int, lose []int, opts ...StreamOption) {
	t.Helper()
	src := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(src)

	sinks := make([]*bytes.Buffer, c.K()+c.R())
	writers := make([]io.Writer, len(sinks))
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	n, err := c.EncodeStream(bytes.NewReader(src), writers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(size) {
		t.Fatalf("EncodeStream consumed %d, want %d", n, size)
	}
	// Every shard stream has the same length: stripes * unit.
	want := sinks[0].Len()
	for i, s := range sinks {
		if s.Len() != want {
			t.Fatalf("shard %d has %d bytes, shard 0 has %d", i, s.Len(), want)
		}
	}

	readers := make([]io.Reader, len(sinks))
	for i := range sinks {
		readers[i] = bytes.NewReader(sinks[i].Bytes())
	}
	for _, i := range lose {
		readers[i] = nil
	}
	var out bytes.Buffer
	if err := c.DecodeStream(readers, &out, n, opts...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatalf("size=%d lose=%v: decoded stream differs", size, lose)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	c := newSmall(t, 4, 2)
	stripe := c.DataSize()
	for _, size := range []int{0, 1, c.UnitSize(), stripe - 1, stripe, stripe + 1, 3*stripe + 1234} {
		streamRoundTrip(t, c, size, nil)
	}
}

func TestStreamDegradedDecode(t *testing.T) {
	c := newSmall(t, 4, 2)
	size := 2*c.DataSize() + 999
	for _, lose := range [][]int{{0}, {3}, {4}, {0, 5}, {1, 2}} {
		streamRoundTrip(t, c, size, lose)
	}
}

// TestStreamPipelinedRoundTrip re-runs the round-trip matrix through the
// concurrent pipeline: multiple workers, a shared stripe pool, and losses.
func TestStreamPipelinedRoundTrip(t *testing.T) {
	c := newSmall(t, 4, 2)
	pool, err := c.NewStreamPool()
	if err != nil {
		t.Fatal(err)
	}
	stripe := c.DataSize()
	for _, workers := range []int{2, 4} {
		opts := []StreamOption{WithStreamWorkers(workers), WithStreamPool(pool)}
		for _, size := range []int{0, 1, stripe - 1, stripe, 5*stripe + 1234} {
			streamRoundTrip(t, c, size, nil, opts...)
		}
		streamRoundTrip(t, c, 3*stripe+77, []int{1, 4}, opts...)
	}
}

// TestStreamOrderIdentical: pipelined encode output must be byte-identical
// to the serial path — the in-order writer reorders completed stripes by
// sequence number. BenchmarkEncodeStream's speedup claim depends on this.
func TestStreamOrderIdentical(t *testing.T) {
	c := newSmall(t, 4, 2)
	size := 17*c.DataSize() + 4321
	src := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(src)

	encode := func(workers int) [][]byte {
		sinks := make([]*bytes.Buffer, 6)
		writers := make([]io.Writer, 6)
		for i := range sinks {
			sinks[i] = &bytes.Buffer{}
			writers[i] = sinks[i]
		}
		n, err := c.EncodeStream(bytes.NewReader(src), writers, WithStreamWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(size) {
			t.Fatalf("workers=%d consumed %d want %d", workers, n, size)
		}
		out := make([][]byte, 6)
		for i := range sinks {
			out[i] = sinks[i].Bytes()
		}
		return out
	}

	serial := encode(1)
	for _, workers := range []int{2, 4, 8} {
		got := encode(workers)
		for i := range serial {
			if !bytes.Equal(serial[i], got[i]) {
				t.Fatalf("workers=%d: shard %d differs from serial encode", workers, i)
			}
		}
	}
}

// TestStreamStats: both directions fill the caller's StreamStats with the
// pipeline geometry and byte/stripe accounting.
func TestStreamStats(t *testing.T) {
	c := newSmall(t, 4, 2)
	size := 7*c.DataSize() + 5
	src := make([]byte, size)
	rand.New(rand.NewSource(11)).Read(src)
	sinks := make([]*bytes.Buffer, 6)
	writers := make([]io.Writer, 6)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	var st StreamStats
	n, err := c.EncodeStream(bytes.NewReader(src), writers, WithStreamWorkers(3), WithStreamStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Stripes != 8 || st.BytesIn != n || st.Workers != 3 || st.Depth < 3 || st.Elapsed <= 0 {
		t.Fatalf("encode stats not populated: %+v", st)
	}
	if st.BytesOut != int64(8*(c.DataSize()+c.ParitySize())) {
		t.Fatalf("encode stats BytesOut = %d", st.BytesOut)
	}

	readers := make([]io.Reader, 6)
	for i := range sinks {
		readers[i] = bytes.NewReader(sinks[i].Bytes())
	}
	readers[2] = nil
	var dst bytes.Buffer
	var decSt StreamStats
	if err := c.DecodeStream(readers, &dst, n, WithStreamWorkers(2), WithStreamStats(&decSt)); err != nil {
		t.Fatal(err)
	}
	if decSt.Stripes != 8 || decSt.BytesOut != n || decSt.Workers != 2 || decSt.Elapsed <= 0 {
		t.Fatalf("decode stats not populated: %+v", decSt)
	}
}

// TestStreamOptionValidation: invalid option values fail fast, before any
// I/O happens.
func TestStreamOptionValidation(t *testing.T) {
	c := newSmall(t, 4, 2)
	writers := make([]io.Writer, 6)
	for i := range writers {
		writers[i] = io.Discard
	}
	if _, err := c.EncodeStream(bytes.NewReader(nil), writers, WithStreamWorkers(0)); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := c.EncodeStream(bytes.NewReader(nil), writers, WithStreamDepth(-1)); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := c.EncodeStream(bytes.NewReader(nil), writers, WithStreamPool(nil)); err == nil {
		t.Error("nil pool accepted")
	}
	// A pool sized for a different geometry must be rejected.
	other := newSmall(t, 3, 1, WithUnitSize(512))
	pool, err := other.NewStreamPool()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodeStream(bytes.NewReader(nil), writers, WithStreamPool(pool)); err == nil {
		t.Error("wrong-geometry pool accepted")
	}
}

// TestStreamSteadyStateAllocs: with a shared stream pool, streaming holds
// zero per-stripe allocations — the per-call cost is constant pipeline
// setup, independent of how many stripes flow through. This is the probe
// for the old bug where EncodeStream allocated data+parity every call.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := newSmall(t, 4, 2)
	pool, err := c.NewStreamPool()
	if err != nil {
		t.Fatal(err)
	}
	writers := make([]io.Writer, 6)
	for i := range writers {
		writers[i] = io.Discard
	}
	small := make([]byte, 4*c.DataSize())
	large := make([]byte, 64*c.DataSize())
	rd := bytes.NewReader(nil)
	run := func(payload []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			rd.Reset(payload)
			if _, err := c.EncodeStream(rd, writers, WithStreamWorkers(1), WithStreamPool(pool)); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(small) // warm the stripe pool and kernel scratch pool
	a4, a64 := run(small), run(large)
	if perStripe := (a64 - a4) / 60; perStripe > 0.05 {
		t.Fatalf("steady-state streaming allocates %.2f/stripe (4 stripes: %.0f allocs, 64 stripes: %.0f)", perStripe, a4, a64)
	}
	if a4 > 8 {
		t.Fatalf("per-call setup allocates %.0f, want a small constant", a4)
	}
}

// encodeToShards encodes src and returns the shard byte slices plus the
// per-shard, per-stripe CRC32C sums a manifest would record.
func encodeToShards(t *testing.T, c *Code, src []byte) ([][]byte, [][]uint32) {
	t.Helper()
	n := c.K() + c.R()
	sinks := make([]*bytes.Buffer, n)
	writers := make([]io.Writer, n)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	if _, err := c.EncodeStream(bytes.NewReader(src), writers, WithStreamWorkers(1)); err != nil {
		t.Fatal(err)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	unit := c.UnitSize()
	shards := make([][]byte, n)
	sums := make([][]uint32, n)
	for i, s := range sinks {
		shards[i] = s.Bytes()
		for off := 0; off+unit <= len(shards[i]); off += unit {
			sums[i] = append(sums[i], crc32.Checksum(shards[i][off:off+unit], tab))
		}
	}
	return shards, sums
}

// crcVerifier is the test's stand-in for a v2 manifest: per-unit CRC32C.
type crcVerifier struct {
	tab  *crc32.Table
	sums [][]uint32
}

func (v *crcVerifier) VerifyUnit(shard int, stripe int64, unit []byte) error {
	if crc32.Checksum(unit, v.tab) != v.sums[shard][stripe] {
		return fmt.Errorf("unit crc mismatch: %w", ErrCorruptShard)
	}
	return nil
}

func newCRCVerifier(sums [][]uint32) *crcVerifier {
	return &crcVerifier{tab: crc32.MakeTable(crc32.Castagnoli), sums: sums}
}

// countingReader counts the bytes drained from an underlying reader.
// Atomic because the pipeline's reader goroutine updates it while test
// assertions (and the TTFB probe on the writer side) read it.
type countingReader struct {
	r *bytes.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestDecodeStreamSinglePass: a verified decode reads every shard byte
// exactly once — verification is folded into the decode pass, not a
// separate hashing pass over the shards.
func TestDecodeStreamSinglePass(t *testing.T) {
	c := newSmall(t, 4, 2)
	src := make([]byte, 16*c.DataSize()+123)
	rand.New(rand.NewSource(31)).Read(src)
	shards, sums := encodeToShards(t, c, src)

	counters := make([]*countingReader, len(shards))
	readers := make([]io.Reader, len(shards))
	for i := range shards {
		counters[i] = &countingReader{r: bytes.NewReader(shards[i])}
		readers[i] = counters[i]
	}
	var out bytes.Buffer
	var st StreamStats
	err := c.DecodeStream(readers, &out, int64(len(src)),
		WithStreamWorkers(2), WithStreamVerifier(newCRCVerifier(sums)), WithStreamStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatal("verified decode corrupted data")
	}
	if len(st.Demoted) != 0 {
		t.Fatalf("clean shards demoted: %+v", st.Demoted)
	}
	for i, cr := range counters {
		if got := cr.n.Load(); got != int64(len(shards[i])) {
			t.Errorf("shard %d: %d bytes read, want exactly one pass of %d", i, got, len(shards[i]))
		}
	}
}

// TestDecodeStreamTTFB: the first decoded byte reaches dst after O(stripe)
// shard I/O, not after the whole object has been read — the property that
// makes large-object GET latency flat in object size.
func TestDecodeStreamTTFB(t *testing.T) {
	c := newSmall(t, 4, 2)
	const stripes = 64
	src := make([]byte, stripes*c.DataSize())
	rand.New(rand.NewSource(32)).Read(src)
	shards, sums := encodeToShards(t, c, src)

	for _, workers := range []int{1, 2} {
		counters := make([]*countingReader, len(shards))
		readers := make([]io.Reader, len(shards))
		for i := range shards {
			counters[i] = &countingReader{r: bytes.NewReader(shards[i])}
			readers[i] = counters[i]
		}
		var atFirstByte int64
		probe := &firstWriteProbe{onFirst: func() {
			for _, cr := range counters {
				atFirstByte += cr.n.Load()
			}
		}}
		err := c.DecodeStream(readers, probe, int64(len(src)),
			WithStreamWorkers(workers), WithStreamDepth(2), WithStreamVerifier(newCRCVerifier(sums)))
		if err != nil {
			t.Fatal(err)
		}
		// The pipeline may run ahead by its depth plus in-flight workers;
		// anything O(a few stripes) passes, a whole-object pre-read (64
		// stripes here) fails.
		budget := int64(8 * len(shards) * c.UnitSize())
		if atFirstByte == 0 || atFirstByte > budget {
			t.Errorf("workers=%d: %d shard bytes read before first output byte, budget %d",
				workers, atFirstByte, budget)
		}
	}
}

// firstWriteProbe invokes onFirst before the first Write and discards the
// data.
type firstWriteProbe struct {
	onFirst func()
	wrote   bool
}

func (p *firstWriteProbe) Write(b []byte) (int, error) {
	if !p.wrote {
		p.wrote = true
		p.onFirst()
	}
	return len(b), nil
}

// TestStreamVerifierDemotion: a unit-level corruption caught by the
// verifier demotes the shard mid-stream and the decode still produces
// byte-identical output, reporting the demotion in the stats — on the
// inline driver, a per-call scheduler and a shared one alike.
func TestStreamVerifierDemotion(t *testing.T) {
	c := newSmall(t, 4, 2)
	src := make([]byte, 5*c.DataSize()+7)
	rand.New(rand.NewSource(33)).Read(src)
	shards, sums := encodeToShards(t, c, src)
	shards[1][2*c.UnitSize()+3] ^= 0x80 // stripe 2 of shard 1

	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	var first *StreamStats
	for _, tc := range []struct {
		name string
		opt  StreamOption
	}{
		{"inline", WithStreamWorkers(1)},
		{"per-call", WithStreamWorkers(2)},
		{"shared", WithStreamScheduler(s)},
	} {
		readers := make([]io.Reader, len(shards))
		for i := range shards {
			readers[i] = bytes.NewReader(shards[i])
		}
		var out bytes.Buffer
		var st StreamStats
		err := c.DecodeStream(readers, &out, int64(len(src)),
			tc.opt, WithStreamVerifier(newCRCVerifier(sums)), WithStreamStats(&st))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(out.Bytes(), src) {
			t.Fatalf("%s: output differs after mid-stream demotion", tc.name)
		}
		if len(st.Demoted) != 1 || st.Demoted[0].Shard != 1 || st.Demoted[0].Stripe != 2 {
			t.Fatalf("%s: Demoted = %+v, want shard 1 at stripe 2", tc.name, st.Demoted)
		}
		if !errors.Is(st.Demoted[0], ErrShardDemoted) {
			t.Errorf("%s: demotion %v does not match ErrShardDemoted", tc.name, st.Demoted[0])
		}
		if !errors.Is(st.Demoted[0].Cause, ErrCorruptShard) {
			t.Errorf("%s: demotion cause %v does not wrap ErrCorruptShard", tc.name, st.Demoted[0].Cause)
		}
		// Demoted is pinned per run above; the byte and stripe counts
		// must match the inline run's too.
		if first == nil {
			first = &st
		} else if st.Stripes != first.Stripes || st.BytesIn != first.BytesIn || st.BytesOut != first.BytesOut {
			t.Errorf("%s: stats %+v differ from inline %+v", tc.name, st, *first)
		}
	}
}

// TestDecodeStreamSteadyStateAllocs is the decode-side twin of
// TestStreamSteadyStateAllocs: with a shared pool, steady-state verified
// decoding (CRC per unit included) holds zero per-stripe allocations.
func TestDecodeStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := newSmall(t, 4, 2)
	pool, err := c.NewStreamPool()
	if err != nil {
		t.Fatal(err)
	}
	smallSrc := make([]byte, 4*c.DataSize())
	largeSrc := make([]byte, 64*c.DataSize())
	rand.New(rand.NewSource(34)).Read(largeSrc)
	copy(smallSrc, largeSrc)
	smallShards, smallSums := encodeToShards(t, c, smallSrc)
	largeShards, largeSums := encodeToShards(t, c, largeSrc)

	readers := make([]io.Reader, len(largeShards))
	raw := make([]*bytes.Reader, len(largeShards))
	for i := range raw {
		raw[i] = bytes.NewReader(nil)
		readers[i] = raw[i]
	}
	smallV, largeV := newCRCVerifier(smallSums), newCRCVerifier(largeSums)
	run := func(shards [][]byte, size int64, v *crcVerifier) float64 {
		return testing.AllocsPerRun(20, func() {
			for i := range raw {
				raw[i].Reset(shards[i])
			}
			err := c.DecodeStream(readers, io.Discard, size,
				WithStreamWorkers(1), WithStreamPool(pool), WithStreamVerifier(v))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	run(smallShards, int64(len(smallSrc)), smallV) // warm pools
	a4 := run(smallShards, int64(len(smallSrc)), smallV)
	a64 := run(largeShards, int64(len(largeSrc)), largeV)
	if perStripe := (a64 - a4) / 60; perStripe > 0.05 {
		t.Fatalf("steady-state verified decode allocates %.2f/stripe (4 stripes: %.0f allocs, 64 stripes: %.0f)",
			perStripe, a4, a64)
	}
	if a4 > 8 {
		t.Fatalf("per-call decode setup allocates %.0f, want a small constant", a4)
	}
}

// TestStreamConcurrent: many goroutines encode and degraded-decode through
// one Code and one shared pool at once. Run under -race this is the public
// API's pipeline stress test.
func TestStreamConcurrent(t *testing.T) {
	c := newSmall(t, 4, 2)
	pool, err := c.NewStreamPool()
	if err != nil {
		t.Fatal(err)
	}
	const streams = 6
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		go func(g int) {
			errs <- func() error {
				size := (3+g)*c.DataSize() + 13*g
				src := make([]byte, size)
				rand.New(rand.NewSource(int64(g))).Read(src)
				sinks := make([]*bytes.Buffer, 6)
				writers := make([]io.Writer, 6)
				for i := range sinks {
					sinks[i] = &bytes.Buffer{}
					writers[i] = sinks[i]
				}
				n, err := c.EncodeStream(bytes.NewReader(src), writers,
					WithStreamWorkers(2+g%3), WithStreamPool(pool))
				if err != nil {
					return err
				}
				readers := make([]io.Reader, 6)
				for i := range sinks {
					readers[i] = bytes.NewReader(sinks[i].Bytes())
				}
				readers[g%4] = nil
				var out bytes.Buffer
				if err := c.DecodeStream(readers, &out, n,
					WithStreamWorkers(2), WithStreamPool(pool)); err != nil {
					return err
				}
				if !bytes.Equal(out.Bytes(), src) {
					return errors.New("concurrent stream corrupted data")
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < streams; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestStreamErrors(t *testing.T) {
	c := newSmall(t, 4, 2)
	var out bytes.Buffer

	if _, err := c.EncodeStream(bytes.NewReader(nil), make([]io.Writer, 3)); !errors.Is(err, ErrShardStreams) {
		t.Error("wrong writer count accepted")
	}
	ws := make([]io.Writer, 6)
	for i := 0; i < 5; i++ {
		ws[i] = &bytes.Buffer{}
	}
	if _, err := c.EncodeStream(bytes.NewReader(nil), ws); !errors.Is(err, ErrShardStreams) {
		t.Error("nil writer accepted")
	}

	if err := c.DecodeStream(make([]io.Reader, 3), &out, 0); !errors.Is(err, ErrShardStreams) {
		t.Error("wrong reader count accepted")
	}
	rs := make([]io.Reader, 6)
	rs[0] = bytes.NewReader(nil)
	if err := c.DecodeStream(rs, &out, 10); !errors.Is(err, ErrShardStreams) {
		t.Error("too few readers accepted")
	}
	full := make([]io.Reader, 6)
	for i := range full {
		full[i] = bytes.NewReader(nil)
	}
	if err := c.DecodeStream(full, &out, -1); err == nil {
		t.Error("negative size accepted")
	}
	// Truncated shard stream: decode must fail, not hang or corrupt.
	if err := c.DecodeStream(full, &out, 10); err == nil {
		t.Error("truncated shard streams accepted")
	}
}

// TestStreamOneByteReaders drives EncodeStream and DecodeStream through
// io.Reader implementations that return one byte at a time (testing/iotest),
// catching any short-read assumptions in the stripe assembly loops.
func TestStreamOneByteReaders(t *testing.T) {
	c := newSmall(t, 3, 2)
	size := c.DataSize() + 77
	src := make([]byte, size)
	rand.New(rand.NewSource(8)).Read(src)

	sinks := make([]*bytes.Buffer, 5)
	writers := make([]io.Writer, 5)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	n, err := c.EncodeStream(iotest.OneByteReader(bytes.NewReader(src)), writers)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(size) {
		t.Fatalf("consumed %d want %d", n, size)
	}
	readers := make([]io.Reader, 5)
	for i := range sinks {
		readers[i] = iotest.OneByteReader(bytes.NewReader(sinks[i].Bytes()))
	}
	readers[1] = nil // and a loss on top
	var out bytes.Buffer
	if err := c.DecodeStream(readers, &out, n); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatal("one-byte-reader round trip corrupted data")
	}
}

// TestStreamSourceError: a failing source mid-stream surfaces the error.
func TestStreamSourceError(t *testing.T) {
	c := newSmall(t, 3, 2)
	ws := make([]io.Writer, 5)
	for i := range ws {
		ws[i] = &bytes.Buffer{}
	}
	src := io.MultiReader(
		bytes.NewReader(make([]byte, c.DataSize())), // one clean stripe
		iotest.ErrReader(errors.New("disk error")),
	)
	if _, err := c.EncodeStream(src, ws); err == nil {
		t.Error("source error swallowed")
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestStreamWriterFailurePropagates(t *testing.T) {
	c := newSmall(t, 4, 2)
	src := make([]byte, c.DataSize())
	ws := make([]io.Writer, 6)
	for i := range ws {
		ws[i] = &bytes.Buffer{}
	}
	ws[3] = &failWriter{after: 0}
	if _, err := c.EncodeStream(bytes.NewReader(src), ws); err == nil {
		t.Error("writer failure swallowed")
	}
}
