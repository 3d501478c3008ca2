package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gemmec"
	"gemmec/internal/peer"
	"gemmec/internal/server"
	"gemmec/internal/vfs"
)

// tracedStore starts a small-mixed style store behind the traced handler
// with recording on.
func tracedStore(t *testing.T) (*stack, *Recorder) {
	t.Helper()
	rec := newRecorder()
	s, err := buildStore(4*kib)(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	rec.on.Store(true)
	return s, rec
}

func TestWrappedHandlerKeepsRangeAndPatch(t *testing.T) {
	s, rec := tracedStore(t)
	pool := newPayloadPool(1)
	var next atomic.Uint64
	c := newClient(0, s.url, pool, rec, &next)
	defer c.close()
	ctx := context.Background()
	o := &object{name: "big", owner: 0, v: version{size: 3 * mib}}
	if res := c.do(ctx, request{kind: opPut, obj: o, start: 8}); res.err != nil || res.mismatch != nil {
		t.Fatalf("PUT: %+v", res)
	}
	res := c.do(ctx, request{kind: opRangeGet, obj: o, off: 1<<20 + 3, n: 4 * kib})
	if res.err != nil || res.mismatch != nil {
		t.Fatalf("range GET (want 206 and the window's bytes): %+v", res)
	}
	res = c.do(ctx, request{kind: opPatch, obj: o, off: 8 * kib, n: 4 * kib, start: 4096})
	if res.err != nil || res.mismatch != nil || !res.inPlace {
		t.Fatalf("PATCH (want 200, in place): %+v", res)
	}
	if res := c.do(ctx, request{kind: opGet, obj: o}); res.err != nil || res.mismatch != nil {
		t.Fatalf("GET after PATCH: %+v", res)
	}
	spans, _ := rec.snapshot()
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	for _, want := range []string{"client", "http.handler", "store.put", "store.open", "store.stream", "store.patch", "vfs.open", "vfs.read", "vfs.write"} {
		if names[want] == 0 {
			t.Errorf("no %s span recorded (have %v)", want, names)
		}
	}
}

func TestWrappersPassThrough(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	dir := t.TempDir()
	tfs := tracedFS{inner: vfs.OS, rec: rec}
	path := filepath.Join(dir, "f")
	data := []byte("shard bytes, unchanged")
	f, err := tfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(data); n != len(data) || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	f.Close()
	f, err = tfs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := tfs.Open(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	if err := tfs.Rename(filepath.Join(dir, "missing"), path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename of a missing file: %v, want fs.ErrNotExist", err)
	}

	ps, err := server.OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := tracedTransport{inner: server.NewLocalTransport(ps), rec: rec}
	ctx := context.Background()
	if err := tr.PutShard(ctx, "6b6579", 1, 0, int64(len(data)), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	rc, size, err := tr.GetShard(ctx, "6b6579", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(rc)
	rc.Close()
	if err != nil || size != int64(len(data)) || !bytes.Equal(got, data) {
		t.Fatalf("shard round trip: %q (size %d), %v", got, size, err)
	}
	if _, _, err := tr.GetShard(ctx, "6b6579", 2, 0); !errors.Is(err, peer.ErrShardNotFound) {
		t.Fatalf("missing shard: %v, want peer.ErrShardNotFound", err)
	}
	if err := tr.PutShard(ctx, "6b6579", 1, 0, int64(len(data)), bytes.NewReader(data)); !errors.Is(err, peer.ErrShardExists) {
		t.Fatalf("second write of a shard: %v, want peer.ErrShardExists", err)
	}

	spans, _ := rec.snapshot()
	failed := 0
	for _, sp := range spans {
		if sp.Err {
			failed++
		}
	}
	// Only the first-writer-wins refusal is a failed call: missing files
	// and shards are expected answers.
	if failed != 1 {
		t.Errorf("%d failed spans, want 1: %+v", failed, spans)
	}
}

func TestBackendWrapperPassesErrors(t *testing.T) {
	s, _ := tracedStore(t)
	resp, err := http.Get(s.url + "/o/never-written")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of a missing object through the wrapper: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPatch, s.url+"/o/never-written", strings.NewReader("x"))
	req.Header.Set("Content-Range", "bytes 0-0/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PATCH of a missing object through the wrapper: %d, want 404", resp.StatusCode)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, {30, 60}, // overlapping pipeline stages: [10, 60)
		{20, 25},   // inside both
		{90, 120},  // runs past the parent: [90, 100)
		{-5, 5},    // starts before it: [0, 5)
		{200, 300}, // outside
	}
	if got := selfTime(parent, children); got != 100-50-10-5 {
		t.Fatalf("self time %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(n-i) * time.Millisecond
		}
		return ds
	}
	if p, ok := percentile(samples(1000), 99); !ok || p != 990*time.Millisecond {
		t.Fatalf("p99 of 1000: %v, %v; want 990ms reported (10 beyond)", p, ok)
	}
	if _, ok := percentile(samples(999), 99); ok {
		t.Fatal("p99 of 999 reported with only 9 samples beyond it")
	}
	if _, ok := percentile(samples(20), 50); !ok {
		t.Fatal("p50 of 20 dropped with 10 samples beyond it")
	}
	if _, ok := percentile(samples(19), 50); ok {
		t.Fatal("p50 of 19 reported with only 9 samples beyond it")
	}
}

func TestFixedSeedSameInputs(t *testing.T) {
	a, b := newPayloadPool(7), newPayloadPool(7)
	if !bytes.Equal(a.b, b.b) {
		t.Fatal("same seed, different payload pools")
	}
	if bytes.Equal(a.b[:4096], newPayloadPool(8).b[:4096]) {
		t.Fatal("different seeds, same payload pool")
	}
	for _, w := range serveWorkloads {
		plan := func(seed int64) string {
			objs := w.objects(rand.New(rand.NewSource(seed)))
			var sb strings.Builder
			for _, o := range objs {
				sb.WriteString(o.name)
				sb.WriteByte(byte(o.v.size))
				sb.WriteByte(byte(o.owner))
			}
			k := clientKeysFor(rand.New(rand.NewSource(seed)), w, objs, 0)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				q := w.next(rng, k, k.mix.next(rng))
				sb.WriteString(q.obj.name)
				sb.WriteByte(byte(q.kind))
				sb.WriteByte(byte(q.off))
				sb.WriteByte(byte(q.start >> 3))
			}
			return sb.String()
		}
		if plan(3) != plan(3) {
			t.Errorf("%s: same seed, different objects or requests", w.name)
		}
		if plan(3) == plan(4) {
			t.Errorf("%s: different seeds, same objects and requests", w.name)
		}
	}
}

func TestMixerDealsExactShares(t *testing.T) {
	m := &mixer{shares: largeStream.mix}
	rng := rand.New(rand.NewSource(1))
	var got [numOpKinds]int
	for i := 0; i < 20*50; i++ {
		got[m.next(rng)]++
	}
	if got[opPut] != 350 || got[opGet] != 500 || got[opDegradedGet] != 150 {
		t.Fatalf("mix over 1000 ops: %v, want 35/50/15 %%", got)
	}
}

func TestCheckerCatchesMismatch(t *testing.T) {
	p := newPayloadPool(1)
	v := &version{size: 100 << 10, start: 123456, patches: []patch{{off: 5000, n: 4096, start: 800}}}
	body, err := io.ReadAll(p.reader(v))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body[5000:5000+4096], p.b[800:800+4096]) {
		t.Fatal("PATCH overlay not applied")
	}
	scratch := make([]byte, 1000)
	ok := newChecker(p, v, 0, v.size, scratch)
	ok.Write(body)
	if err := ok.result(); err != nil {
		t.Fatalf("matching body rejected: %v", err)
	}
	body[70000] ^= 1
	bad := newChecker(p, v, 0, v.size, scratch)
	bad.Write(body)
	if bad.result() == nil {
		t.Fatal("flipped byte not caught")
	}
	short := newChecker(p, v, 0, v.size, scratch)
	short.Write(body[:100])
	if short.result() == nil {
		t.Fatal("short body not caught")
	}
}

// faultyBackend fails every call the handler makes for one key: Open
// answers not found (op "open"), Put an internal error (op "put"). Calls
// made outside a request, as set-up makes them, pass.
type faultyBackend struct {
	backend
	key, op string
}

func served(ctx context.Context) bool { return ctx.Value(http.ServerContextKey) != nil }

func (f faultyBackend) Open(ctx context.Context, name string) (server.ObjectStream, error) {
	if f.op == "open" && name == f.key && served(ctx) {
		return nil, server.ErrObjectNotFound
	}
	return f.backend.Open(ctx, name)
}

func (f faultyBackend) Put(ctx context.Context, name string, src io.Reader, size int64) (server.ObjectMeta, gemmec.StreamStats, error) {
	if f.op == "put" && name == f.key && served(ctx) {
		return server.ObjectMeta{}, gemmec.StreamStats{}, errors.New("disk gone")
	}
	return f.backend.Put(ctx, name, src, size)
}

// faultyWorkload PUTs four objects and GETs all but the first, whose
// calls its backend fails, so a failed GET can only come from the
// read-back. Apart from that fault, the run is a passing one.
func faultyWorkload(op string) *serveWorkload {
	return &serveWorkload{
		name: "faulty-" + op,
		k:    4, r: 2,
		build: func(dir string, rec *Recorder) (*stack, error) {
			s := &stack{dir: dir}
			st, err := server.Open(server.StoreConfig{Root: dir, Nodes: 6, K: 4, R: 2, UnitSize: 128 * kib})
			if err != nil {
				return nil, err
			}
			s.closers = append(s.closers, st.Close)
			fb := faultyBackend{backend: st, key: "f-00000", op: op}
			s.store, s.backend = st, fb
			serveHTTP(s, fb, rec)
			return s, nil
		},
		objects: func(*rand.Rand) []*object {
			objs := makeObjects("f", []int64{64 * kib, 100 * kib, 200 * kib, 300 * kib}, 0)
			assign(objs)
			return objs
		},
		mix: []share{{opPut, 1}, {opGet, 1}},
		next: func(rng *rand.Rand, k *clientKeys, kind opKind) request {
			if kind == opPut {
				return largeStream.next(rng, k, kind)
			}
			o := k.gets.take()
			for o.name == "f-00000" {
				o = k.gets.take()
			}
			return request{kind: opGet, obj: o}
		},
	}
}

func TestRunFailsOnLostOrRefusedData(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for op, want := range map[string]string{
		"open": "FAULT get f-00000: status 404", // the read-back finds the object gone
		"put":  "FAULT put f-00000: status 500", // a measured-phase PUT is refused
		"":     "",                              // no fault: the run passes
	} {
		w := faultyWorkload(op)
		serveWorkloads[w.name] = w
		var out bytes.Buffer
		code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0.3"}, &out)
		delete(serveWorkloads, w.name)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if op == "" {
			if code != 0 || strings.Contains(out.String(), "FAULT") || !strings.Contains(lines[len(lines)-1], `"correct":true`) {
				t.Errorf("fault-free run: exit %d, want 0 and correct true; output:\n%s", code, out.String())
			}
			continue
		}
		if code != 1 || !strings.Contains(out.String(), want) || !strings.Contains(lines[len(lines)-1], `"correct":false`) {
			t.Errorf("%s: exit %d, want 1 with %q and correct false; output:\n%s", op, code, want, out.String())
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the result
// object is built from in step with BENCHMARK.json, and its workloads
// runnable by name.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []layerMetric `json:"end_to_end"`
		PerLayer  []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, layerMetrics)
	for _, w := range spec.Workloads {
		if _, ok := serveWorkloads[w.Name]; !ok && w.Name != "codec-stream" {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}
}
