package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gemmec/internal/faultfs"
	"gemmec/internal/vfs"
)

// End-to-end cancellation: a client that disconnects or times out must
// free the request's pipeline workers and per-object lock promptly, leave
// no partial shard generation on disk, and be counted as canceled — the
// tentpole guarantees, exercised over a real socket.

// lockFreeWithin reports whether key's per-object lock becomes available
// within d (the canceled request must have released it).
func lockFreeWithin(t *testing.T, s *Store, key string, d time.Duration) {
	t.Helper()
	got := make(chan *sync.RWMutex, 1)
	go func() {
		l := s.lockExclusive(key)
		got <- l
	}()
	select {
	case l := <-got:
		l.Unlock()
	case <-time.After(d):
		t.Fatalf("per-object lock still held %v after cancellation", d)
	}
}

// keyFiles returns every path under the store root that belongs to key —
// shard files, temp files, metadata. Empty means the canceled operation
// left no trace.
func keyFiles(t *testing.T, s *Store, key string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(s.cfg.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && (strings.Contains(d.Name(), key) || strings.HasSuffix(d.Name(), ".tmp")) {
			found = append(found, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// waitCounter polls an int64-valued probe until it reaches want.
func waitCounter(t *testing.T, what string, probe func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if probe() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d within 5s", what, probe(), want)
}

func TestClientDisconnectMidPut(t *testing.T) {
	s, m, ts := newMetricsServer(t, Config{})
	const name = "half-upload"
	key := objKey(name)

	// Stream a few stripes through a pipe, then cancel the request: the
	// transport tears the connection down mid-body.
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, ts.URL+"/o/"+name, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // chunked: the server cannot know we will vanish

	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	chunk := bytes.Repeat([]byte{0xab}, tk*tunit)
	for i := 0; i < 4; i++ {
		if _, err := pw.Write(chunk); err != nil {
			t.Fatalf("pipe write %d: %v", i, err)
		}
	}
	cancel()
	// Unblock the transport's body-write loop (it is parked reading the
	// pipe); the error keeps the abort from looking like a clean EOF.
	pw.CloseWithError(errors.New("client vanished"))
	if err := <-errc; err == nil {
		t.Fatal("canceled PUT reported success")
	}

	// The handler must finish (counted as canceled), release the lock
	// promptly, and leave nothing of the aborted generation on disk.
	deadline := time.Now().Add(5 * time.Second)
	for m.requestsCanceled.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.requestsCanceled.Value() < 1 {
		t.Fatalf("requests_canceled = 0; request samples: %v",
			samplesMatching(scrape(t, ts), "requests"))
	}
	lockFreeWithin(t, s, key, 100*time.Millisecond)
	if left := keyFiles(t, s, key); len(left) > 0 {
		t.Fatalf("canceled PUT left files behind: %v", left)
	}
	if _, err := s.Stat(name); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("canceled PUT created the object: %v", err)
	}
}

func TestClientDisconnectMidGet(t *testing.T) {
	s, m, ts := newMetricsServer(t, Config{})
	const name = "big-download"
	key := objKey(name)
	mustPut(t, s, name, randBytes(5, 8<<20))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/o/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Take a sip of the body, then vanish mid-stream.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	cancel()

	waitCounter(t, "requests_canceled", m.requestsCanceled.Value, 1)
	lockFreeWithin(t, s, key, 100*time.Millisecond)
	// The object itself must be untouched by the aborted read.
	if got, bad := mustGet(t, s, name); len(bad) != 0 || len(got) != 8<<20 {
		t.Fatalf("object damaged after aborted GET: %d bytes, bad=%v", len(got), bad)
	}
}

// Put/Delete storms on one key must neither deadlock, corrupt the object,
// nor grow the lock map: dropLock retires entries and the revalidating
// acquire loops make lock identity safe under -race.
func TestPutDeleteLockRace(t *testing.T) {
	s := newTestStore(t)
	const name = "contended"
	key := objKey(name)
	data := randBytes(11, 3*tk*tunit)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					s.Put(context.Background(), name, bytes.NewReader(data), int64(len(data))) //nolint:errcheck
				case 1:
					s.Delete(context.Background(), name) //nolint:errcheck
				default:
					var sink bytes.Buffer
					s.Get(context.Background(), name, &sink) //nolint:errcheck
				}
			}
		}(g)
	}
	wg.Wait()

	// Settle to a known state: one put, one delete — after which the key
	// must have no lock entry and no files.
	mustPut(t, s, name, data)
	if err := s.Delete(context.Background(), name); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	n := len(s.locks)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("lock map holds %d entries after final delete, want 0", n)
	}
	if left := keyFiles(t, s, key); len(left) > 0 {
		t.Fatalf("files left after delete: %v", left)
	}
}

func TestMaxObjectSize413(t *testing.T) {
	s, _, ts := newMetricsServer(t, Config{MaxObjectSize: 4096})
	big := randBytes(3, 16384)

	// Declared oversize: refused before any shard I/O.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/o/declared", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize PUT: status %d, want 413", resp.StatusCode)
	}

	// Chunked oversize: cut off mid-stream by MaxBytesReader; the aborted
	// encode must remove its temporary generation.
	req, err = http.NewRequest(http.MethodPut, ts.URL+"/o/chunked",
		io.NopCloser(bytes.NewReader(big)))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize PUT: status %d, want 413", resp.StatusCode)
	}
	for _, name := range []string{"declared", "chunked"} {
		if left := keyFiles(t, s, objKey(name)); len(left) > 0 {
			t.Fatalf("oversize PUT %q left files behind: %v", name, left)
		}
		if _, err := s.Stat(name); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("oversize PUT %q created the object: %v", name, err)
		}
	}
	// An in-budget PUT on the same handler still works.
	req, err = http.NewRequest(http.MethodPut, ts.URL+"/o/small", bytes.NewReader(big[:1000]))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("in-budget PUT: status %d, want 201", resp.StatusCode)
	}
}

// trickleReader feeds chunk every interval, forever, so a request outlives
// any deadline while the pipeline keeps making (slow) progress.
type trickleReader struct {
	chunk    []byte
	interval time.Duration
}

func (r *trickleReader) Read(p []byte) (int, error) {
	time.Sleep(r.interval)
	return copy(p, r.chunk), nil
}

func TestRequestTimeout504(t *testing.T) {
	s, m, ts := newMetricsServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	const name = "too-slow"

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/o/"+name,
		io.NopCloser(&trickleReader{chunk: make([]byte, tk*tunit), interval: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("endless PUT under -request-timeout: status %d, want 504", resp.StatusCode)
	}
	waitCounter(t, "requests_timeout", m.requestsTimeout.Value, 1)
	lockFreeWithin(t, s, objKey(name), 100*time.Millisecond)
	if left := keyFiles(t, s, objKey(name)); len(left) > 0 {
		t.Fatalf("timed-out PUT left files behind: %v", left)
	}
}

// A shard whose disk stops answering must not hang the GET: with
// Config.ShardReadTimeout set, the stalled shard is demoted (cause
// "stall") and the object is served degraded, bytes intact.
func TestServerStalledShardServesDegraded(t *testing.T) {
	ffs := faultfs.New(vfs.OS, 1,
		faultfs.Rule{Op: faultfs.OpRead, Pattern: "*.shard_000", Stall: true})
	t.Cleanup(ffs.ReleaseStalls)
	s, err := Open(StoreConfig{
		Root:             t.TempDir(),
		Nodes:            tnode,
		K:                tk,
		R:                tr,
		UnitSize:         tunit,
		Workers:          2,
		FS:               ffs,
		ShardReadTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(nil)
	s.SetMetrics(m)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf, Metrics: m}))
	t.Cleanup(ts.Close)

	const name = "stall-victim"
	data := randBytes(9, 6*tk*tunit)
	mustPut(t, s, name, data)

	start := time.Now()
	resp, err := ts.Client().Get(ts.URL + "/o/" + name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET with stalled shard: status %d, err %v", resp.StatusCode, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("GET took %v: the stalled shard hung the request", d)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("degraded GET payload mismatch")
	}
	if got := resp.Trailer.Get("X-Gemmec-Degraded"); got != "true" {
		t.Fatalf("X-Gemmec-Degraded trailer = %q, want true", got)
	}
	samples := scrape(t, ts)
	if v := samples[`gemmec_demotions_total{cause="stall"}`]; v < 1 {
		t.Fatalf("stall demotion not recorded in metrics (got %v); samples may use another label: %v",
			v, samplesMatching(samples, "demotion"))
	}
}

// samplesMatching filters a scrape by substring, for failure messages.
func samplesMatching(samples map[string]float64, sub string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range samples {
		if strings.Contains(k, sub) {
			out[k] = v
		}
	}
	return out
}

// A canceled context refuses new work up front, before taking locks or
// touching disk.
func TestStoreOpsRefuseDeadContext(t *testing.T) {
	s := newTestStore(t)
	mustPut(t, s, "exists", randBytes(2, tk*tunit))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := s.Put(ctx, "new", bytes.NewReader(nil), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put on dead ctx: %v", err)
	}
	var sink bytes.Buffer
	if _, _, err := s.Get(ctx, "exists", &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get on dead ctx: %v", err)
	}
	if err := s.Delete(ctx, "exists"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete on dead ctx: %v", err)
	}
	if _, err := s.ScrubObject(ctx, "exists"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScrubObject on dead ctx: %v", err)
	}
	// The object survives all of the refused operations.
	if got, _ := mustGet(t, s, "exists"); len(got) != tk*tunit {
		t.Fatalf("object damaged by refused ops: %d bytes", len(got))
	}
}
