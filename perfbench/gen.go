package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
)

// Every byte the benchmark sends is a window of one seeded pool: an
// object version is (start offset, size), and its content at byte o is
// pool[(start+o) mod len(pool)]. Generating a body or checking one is a
// memcpy-speed slice walk, any byte range can be produced without
// generating what precedes it (range GETs, PATCH overlays), and the
// model never holds object payloads.

// poolSize is the payload pool length. It is a power of two so the wrap
// is a mask, and larger than any object so one version never repeats a
// window of itself.
const poolSize = 32 << 20

// payloadPool holds the seeded bytes every payload is drawn from.
type payloadPool struct {
	b []byte
}

// splitmix64 is the pool's word generator: a counter-based mixer, so the
// pool depends only on the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newPayloadPool(seed int64) *payloadPool {
	return &payloadPool{b: seededBytes(seed, 0, poolSize)}
}

// seededBytes returns n bytes generated from seed; salt keeps inputs that
// share a seed apart. A tail shorter than a word stays zero.
func seededBytes(seed int64, salt uint64, n int) []byte {
	b := make([]byte, n)
	s := splitmix64(uint64(seed) ^ salt)
	for i := 0; i+8 <= n; i += 8 {
		w := splitmix64(s + uint64(i))
		for j := 0; j < 8; j++ {
			b[i+j] = byte(w >> (8 * j))
		}
	}
	return b
}

// window returns the longest contiguous slice of the pool starting at
// pool position pos, capped at n bytes.
func (p *payloadPool) window(pos, n int64) []byte {
	i := pos & (poolSize - 1)
	end := i + n
	if end > poolSize {
		end = poolSize
	}
	return p.b[i:end]
}

// patch is one PATCH overlay: n bytes at object offset off, drawn from
// the pool at start.
type patch struct {
	off, n, start int64
}

// version is one stored content of an object: a pool window plus the
// PATCH overlays applied since the last PUT, oldest first.
type version struct {
	size    int64
	start   int64
	patches []patch
}

// fill writes bytes [off, off+len(dst)) of version v into dst.
func (p *payloadPool) fill(v *version, off int64, dst []byte) {
	for done := int64(0); done < int64(len(dst)); {
		w := p.window(v.start+off+done, int64(len(dst))-done)
		done += int64(copy(dst[done:], w))
	}
	for _, pt := range v.patches {
		lo, hi := max(pt.off, off), min(pt.off+pt.n, off+int64(len(dst)))
		for o := lo; o < hi; {
			w := p.window(pt.start+(o-pt.off), hi-o)
			copy(dst[o-off:], w)
			o += int64(len(w))
		}
	}
}

// reader streams version v from offset 0 (a PUT body).
func (p *payloadPool) reader(v *version) io.Reader {
	return &poolReader{p: p, v: v}
}

type poolReader struct {
	p   *payloadPool
	v   *version
	off int64
}

func (r *poolReader) Read(b []byte) (int, error) {
	if r.off >= r.v.size {
		return 0, io.EOF
	}
	n := min(int64(len(b)), r.v.size-r.off)
	r.p.fill(r.v, r.off, b[:n])
	r.off += n
	return int(n), nil
}

// checker is an io.Writer that compares everything written to it with
// bytes [off, off+n) of a version, so a response body is verified as it
// streams and never buffered whole.
type checker struct {
	p       *payloadPool
	v       *version
	off     int64
	end     int64
	scratch []byte
	bad     error
}

func newChecker(p *payloadPool, v *version, off, n int64, scratch []byte) *checker {
	return &checker{p: p, v: v, off: off, end: off + n, scratch: scratch}
}

func (c *checker) Write(b []byte) (int, error) {
	if c.bad != nil {
		return len(b), nil
	}
	for done := 0; done < len(b); {
		n := min(len(b)-done, len(c.scratch))
		if c.off+int64(n) > c.end {
			c.bad = fmt.Errorf("body longer than the %d expected bytes", c.end)
			return len(b), nil
		}
		want := c.scratch[:n]
		c.p.fill(c.v, c.off, want)
		if !bytes.Equal(want, b[done:done+n]) {
			c.bad = fmt.Errorf("byte mismatch in [%d, %d)", c.off, c.off+int64(n))
			return len(b), nil
		}
		c.off += int64(n)
		done += n
	}
	return len(b), nil
}

// result reports the first mismatch, or a short body.
func (c *checker) result() error {
	if c.bad != nil {
		return c.bad
	}
	if c.off != c.end {
		return fmt.Errorf("short body: %d bytes short", c.end-c.off)
	}
	return nil
}

// newStart draws a pool start for a fresh version, distinct from old so
// a stale read can never pass the check.
func newStart(rng *rand.Rand, old int64) int64 {
	for {
		s := rng.Int63n(poolSize/8) * 8
		if s != old {
			return s
		}
	}
}

// stratifiedSizes draws n sizes uniform in [lo, hi], one per equal-width
// stratum, in seeded order. Each run's sizes are seed-dependent but cover
// the range the same way, so the size mix — and with it the latency
// median — does not drift from seed to seed.
func stratifiedSizes(rng *rand.Rand, n int, lo, hi int64) []int64 {
	out := make([]int64, n)
	w := float64(hi-lo) / float64(n)
	for i := range out {
		out[i] = lo + int64((float64(i)+rng.Float64())*w)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
