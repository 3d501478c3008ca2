package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"gemmec"
)

// codecStream exercises the public library API with no disk and no
// HTTP: EncodeStream/DecodeStream of one seeded 64 MiB buffer at k=4,
// r=2, 128 KiB units. Calls cycle through the documented zero-option form
// and WithStreamWorkers(1); every decode reconstructs two lost data
// shards.
const (
	codecK, codecR = 4, 2
	codecUnit      = 128 * kib
	codecInput     = 64 * mib
	codecSalt      = 0xc0dec // seededBytes salt of the codec inputs
)

var codecParams = map[string]any{"k": codecK, "r": codecR, "unit": codecUnit, "input_bytes": codecInput,
	"callers": 1, "calls": "cycle: zero-option encode, zero-option decode, WithStreamWorkers(1) encode, WithStreamWorkers(1) decode",
	"decode_loss": "2 data shards, seeded pair per call"}

// codec call kinds, in the order a caller cycles through them.
const (
	callEncode = iota
	callDecode
	callSerialEncode
	callSerialDecode
	numCalls
)

var callNames = [numCalls]string{"encode", "decode", "serial_encode", "serial_decode"}

// lossPairs lists every pair of data shards a decode can lose.
var lossPairs = func() [][2]int {
	var ps [][2]int
	for a := 0; a < codecK; a++ {
		for b := a + 1; b < codecK; b++ {
			ps = append(ps, [2]int{a, b})
		}
	}
	return ps
}()

// codecEnv is one set-up: the code, the input, and the shard buffers the
// last encode filled.
type codecEnv struct {
	code   *gemmec.Code
	input  []byte
	shards []*bytes.Buffer
}

// setupCodec builds the code, encodes once and decodes once per loss
// pair, so every decoder is compiled before timing starts.
func setupCodec(input []byte) (*codecEnv, error) {
	code, err := gemmec.New(codecK, codecR, gemmec.WithUnitSize(codecUnit))
	if err != nil {
		return nil, err
	}
	e := &codecEnv{code: code, input: input}
	for i := 0; i < codecK+codecR; i++ {
		e.shards = append(e.shards, bytes.NewBuffer(make([]byte, 0, len(input)/codecK+codecUnit)))
	}
	if _, err := e.call(callEncode, 0, nil); err != nil {
		return nil, err
	}
	for p := range lossPairs {
		if _, err := e.call(callDecode, p, nil); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// sameAs is an io.Writer that checks a decode's output against want.
type sameAs struct {
	want []byte
	off  int
	bad  bool
}

func (s *sameAs) Write(p []byte) (int, error) {
	if s.off+len(p) > len(s.want) || !bytes.Equal(p, s.want[s.off:s.off+len(p)]) {
		s.bad = true
	}
	s.off += len(p)
	return len(p), nil
}

// call runs one library call. pair picks the lost data shards of a
// decode. st, when non-nil, receives the pipeline accounting.
func (e *codecEnv) call(kind, pair int, st *gemmec.StreamStats) (int64, error) {
	var opts []gemmec.StreamOption
	if kind == callSerialEncode || kind == callSerialDecode {
		opts = append(opts, gemmec.WithStreamWorkers(1))
	}
	if st != nil {
		opts = append(opts, gemmec.WithStreamStats(st))
	}
	switch kind {
	case callEncode, callSerialEncode:
		ws := make([]io.Writer, len(e.shards))
		for i, b := range e.shards {
			b.Reset()
			ws[i] = b
		}
		n, err := e.code.EncodeStream(bytes.NewReader(e.input), ws, opts...)
		if err != nil {
			return n, err
		}
		if n != int64(len(e.input)) {
			return n, fmt.Errorf("encode consumed %d of %d bytes", n, len(e.input))
		}
		return n, nil
	default:
		rs := make([]io.Reader, len(e.shards))
		for i, b := range e.shards {
			rs[i] = bytes.NewReader(b.Bytes())
		}
		lost := lossPairs[pair]
		rs[lost[0]], rs[lost[1]] = nil, nil
		chk := &sameAs{want: e.input}
		if err := e.code.DecodeStream(rs, chk, int64(len(e.input)), opts...); err != nil {
			return 0, err
		}
		if chk.bad || chk.off != len(e.input) {
			return 0, fmt.Errorf("%w: decode losing shards %v did not reproduce the input", errMismatch, lost)
		}
		return int64(len(e.input)), nil
	}
}

// shardBytes is what the last encode wrote across all shards.
func (e *codecEnv) shardBytes() int64 {
	var n int64
	for _, b := range e.shards {
		n += int64(b.Len())
	}
	return n
}

// codecLog is what the caller records.
type codecLog struct {
	lat       [numCalls][]time.Duration
	attempted int
	failed    int
	faults    []error
	pipes     []gemmec.StreamStats
	spanTime  []time.Duration // call durations matching pipes
	kinds     []int           // call kinds matching pipes
}

func (e *codecEnv) loop(rng *rand.Rand, deadline time.Time, traced bool, log *codecLog) {
	for i := 0; time.Now().Before(deadline); i++ {
		kind := i % numCalls
		pair := rng.Intn(len(lossPairs))
		var st *gemmec.StreamStats
		if traced {
			st = new(gemmec.StreamStats)
		}
		t0 := time.Now()
		_, err := e.call(kind, pair, st)
		d := time.Since(t0)
		log.attempted++
		if err != nil {
			// The library has no admission control: every error fails the
			// run, and one that is not a mismatch also counts as failed.
			if !isMismatch(err) {
				log.failed++
			}
			log.faults = append(log.faults, err)
			continue
		}
		log.lat[kind] = append(log.lat[kind], d)
		if traced {
			log.pipes = append(log.pipes, *st)
			log.spanTime = append(log.spanTime, d)
			log.kinds = append(log.kinds, kind)
		}
	}
}
