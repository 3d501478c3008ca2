package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemmec"
	"gemmec/internal/peer"
	"gemmec/internal/server"
	"gemmec/internal/vfs"
)

const (
	clients = 2 // closed-loop clients: nproc on the box the bounds were set on
	kib     = 1 << 10
	mib     = 1 << 20
)

// stack is one running server: the backend behind an in-process loopback
// HTTP listener, plus what set-up and the layer metrics need to reach.
type stack struct {
	dir     string
	backend backend
	store   *server.Store // single-node workloads
	peers   []*server.PeerStore
	url     string
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// serveWorkload is a closed-loop HTTP workload: the objects set-up
// writes, the stack they live on, and the op mix the clients draw from.
type serveWorkload struct {
	name   string
	params map[string]any
	// build starts the stack in dir. rec is nil on untraced runs, and
	// then no wrapper is installed.
	build func(dir string, rec *Recorder) (*stack, error)
	// objects lays out every key with its size, class and owner.
	objects func(rng *rand.Rand) []*object
	// degrade deletes one shard of every read-only object, after set-up
	// has written it. metas holds each object's committed metadata.
	degrade func(s *stack, objs []*object, metas map[string]server.ObjectMeta) error
	// mix is the op mix, as counts per block of ops.
	mix []share
	// next draws a client's next request of the given kind.
	next func(rng *rand.Rand, own *clientKeys, kind opKind) request
	// threshold is the slab threshold (0: no slabs).
	threshold int64
	// k and r are the code geometry, for the direct kernel measurement.
	k, r int
}

// clientKeys is one client's view of the keys it may use.
type clientKeys struct {
	puts, gets, ro cycle      // the client's keys, and the shared read-only ones
	big            []*object  // the client's range/PATCH targets (small-mixed)
	zipf           *rand.Zipf // over zipfSet, when the workload uses it
	zipfSet        []*object
	mix            *mixer
}

// cycle hands out its keys in a fixed seeded order, one per call: every
// key is visited once before any repeats, so a run's size mix does not
// depend on luck.
type cycle struct {
	objs []*object
	next int
}

func (c *cycle) take() *object {
	o := c.objs[c.next%len(c.objs)]
	c.next++
	return o
}

func defaultWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// newSched builds the bench-owned scheduler handed to the store or
// gateway, with the recorder's wait hook when tracing.
func newSched(rec *Recorder) *gemmec.Scheduler {
	cfg := gemmec.SchedulerConfig{Workers: defaultWorkers()}
	if rec == nil {
		return gemmec.NewScheduler(cfg)
	}
	var s *gemmec.Scheduler
	cfg.OnWait = func(d time.Duration) { rec.onSchedWait(d, s.QueueDepth()) }
	s = gemmec.NewScheduler(cfg)
	return s
}

// serveHTTP fronts b with the program's handler on a loopback listener.
func serveHTTP(s *stack, b backend, rec *Recorder) {
	if rec != nil {
		b = &tracedBackend{backend: b, rec: rec}
	}
	h := server.NewBackendHandler(b, server.Config{})
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	srv := httptest.NewServer(h)
	s.url = srv.URL
	s.closers = append(s.closers, srv.Close)
}

// buildStore starts a single-node Store with the ecserver default
// geometry: k=4, r=2, 128 KiB units over 6 node directories.
func buildStore(threshold int64) func(string, *Recorder) (*stack, error) {
	return func(dir string, rec *Recorder) (*stack, error) {
		s := &stack{dir: dir}
		sched := newSched(rec)
		s.closers = append(s.closers, sched.Close)
		cfg := server.StoreConfig{Root: dir, Nodes: 6, K: 4, R: 2, UnitSize: 128 * kib,
			Sched: sched, SlabThreshold: threshold}
		if rec != nil {
			cfg.FS = tracedFS{inner: vfs.OS, rec: rec}
		}
		st, err := server.Open(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, st.Close)
		s.store, s.backend = st, st
		serveHTTP(s, st, rec)
		return s, nil
	}
}

// buildCluster starts three PeerStores behind the peer API and a gateway
// over them: its own member through a local transport, the other two
// over loopback HTTP. k=2, r=1, write quorum 1.
func buildCluster(dir string, rec *Recorder) (*stack, error) {
	const peers = 3
	s := &stack{dir: dir}
	members := make([]peer.Member, peers)
	for i := 0; i < peers; i++ {
		ps, err := server.OpenPeerStore(filepath.Join(dir, fmt.Sprintf("peer%d", i)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.peers = append(s.peers, ps)
		srv := httptest.NewServer(server.NewPeerAPI(ps, "", nil))
		s.closers = append(s.closers, srv.Close)
		members[i] = peer.Member{ID: i, Addr: srv.URL}
	}
	ring, err := peer.NewRing(members)
	if err != nil {
		s.close()
		return nil, err
	}
	transports := map[int]peer.Transport{0: server.NewLocalTransport(s.peers[0])}
	for i := 1; i < peers; i++ {
		c := peer.NewClient(members[i], peer.ClientConfig{})
		s.closers = append(s.closers, c.Close)
		transports[i] = c
	}
	if rec != nil {
		for id, t := range transports {
			transports[id] = tracedTransport{inner: t, rec: rec}
		}
	}
	sched := newSched(rec)
	s.closers = append(s.closers, sched.Close)
	gw, err := server.NewGateway(server.GatewayConfig{Ring: ring, Transports: transports, SelfID: 0,
		K: 2, R: 1, UnitSize: 128 * kib, Sched: sched, WriteQuorum: 1})
	if err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, gw.Close)
	s.backend = gw
	serveHTTP(s, gw, rec)
	return s, nil
}

// objectKey is the program's on-disk key for an object name.
func objectKey(name string) string { return hex.EncodeToString([]byte(name)) }

// dropStoreShard deletes data shard 0 of every read-only object from a
// single-node store's node directories.
func dropStoreShard(s *stack, objs []*object, _ map[string]server.ObjectMeta) error {
	for _, o := range objs {
		if o.owner >= 0 {
			continue
		}
		m, err := filepath.Glob(filepath.Join(s.dir, "node_*", objectKey(o.name)+".g*.shard_000"))
		if err != nil {
			return err
		}
		if len(m) != 1 {
			return fmt.Errorf("degrade %s: found %d copies of shard 0", o.name, len(m))
		}
		if err := os.Remove(m[0]); err != nil {
			return err
		}
	}
	return nil
}

// dropPeerShard deletes, for every read-only object, the shard peer 2
// holds.
func dropPeerShard(s *stack, objs []*object, metas map[string]server.ObjectMeta) error {
	const victim = 2
	for _, o := range objs {
		if o.owner >= 0 {
			continue
		}
		m := metas[o.name]
		found := false
		for idx, member := range m.Placement {
			if member == victim {
				if err := s.peers[victim].DeleteShard(objectKey(o.name), uint64(m.Gen), idx); err != nil {
					return err
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("degrade %s: no shard on peer %d", o.name, victim)
		}
	}
	return nil
}

// assign spreads keys over the clients round-robin: each key has one
// writer, so the model always knows its bytes.
func assign(objs []*object) {
	for i, o := range objs {
		o.owner = i % clients
	}
}

func makeObjects(class string, sizes []int64, threshold int64) []*object {
	objs := make([]*object, len(sizes))
	for i, sz := range sizes {
		objs[i] = &object{name: fmt.Sprintf("%s-%05d", class, i), class: class,
			slab: threshold > 0 && sz <= threshold, v: version{size: sz}}
	}
	return objs
}

func readOnly(objs []*object) []*object {
	for _, o := range objs {
		o.owner = -1
	}
	return objs
}

// share is one op kind's part of a workload's mix: count ops of every
// block.
type share struct {
	kind  opKind
	count int
}

// mixer deals op kinds in seeded shuffled blocks that each hold the exact
// mix, so a run's op mix does not drift with the seed or the run length.
type mixer struct {
	shares []share
	block  []opKind
	pos    int
}

func (m *mixer) next(rng *rand.Rand) opKind {
	if m.pos == len(m.block) {
		m.block, m.pos = m.block[:0], 0
		for _, s := range m.shares {
			for i := 0; i < s.count; i++ {
				m.block = append(m.block, s.kind)
			}
		}
		rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	m.pos++
	return m.block[m.pos-1]
}

// balancedOrder returns objs in an order whose every prefix spans the
// size range evenly: sorted by size, visited in bit-reversed index order,
// rotated by rot. A run that gets through only part of a cycle then still
// sees the workload's size mix; rotation 1 starts at the median size.
func balancedOrder(objs []*object, rot int) []*object {
	sorted := append([]*object(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].v.size < sorted[j].v.size })
	bits := 0
	for 1<<bits < len(sorted) {
		bits++
	}
	order := make([]*object, 0, len(sorted))
	for i := 0; i < 1<<bits; i++ {
		rev := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				rev |= 1 << (bits - 1 - b)
			}
		}
		if rev < len(sorted) {
			order = append(order, sorted[rev])
		}
	}
	if len(order) > 0 {
		r := rot % len(order)
		order = append(order[r:], order[:r]...)
	}
	return order
}

// interleave merges lists into one, each list's items spread evenly over
// the result in proportion to its length.
func interleave(lists ...[]*object) []*object {
	var out []*object
	taken := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if taken[i] == len(l) {
				continue
			}
			// Pick the list furthest behind its share.
			if best < 0 || float64(2*taken[i]+1)*float64(len(lists[best])) < float64(2*taken[best]+1)*float64(len(l)) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][taken[best]])
		taken[best]++
	}
}

var largeStream = serveWorkload{
	name: "large-stream",
	params: map[string]any{"k": 4, "r": 2, "unit": 128 * kib, "nodes": 6, "clients": clients,
		"objects": "48 x 4-16 MiB read-write + 8 x 4-16 MiB read-only degraded",
		"mix":     "35% overwrite PUT, 50% GET, 15% degraded GET"},
	build: buildStore(0),
	k:     4, r: 2,
	objects: func(rng *rand.Rand) []*object {
		rw := makeObjects("large", stratifiedSizes(rng, 48, 4*mib, 16*mib), 0)
		assign(rw)
		ro := readOnly(makeObjects("degraded", stratifiedSizes(rng, 8, 4*mib, 16*mib), 0))
		return append(rw, ro...)
	},
	degrade: dropStoreShard,
	mix:     []share{{opPut, 7}, {opGet, 10}, {opDegradedGet, 3}},
	next: func(rng *rand.Rand, k *clientKeys, kind opKind) request {
		switch kind {
		case opPut:
			o := k.puts.take()
			return request{kind: opPut, obj: o, start: newStart(rng, o.v.start)}
		case opGet:
			return request{kind: opGet, obj: k.gets.take()}
		default:
			return request{kind: opDegradedGet, obj: k.ro.take()}
		}
	},
}

var smallMixed = serveWorkload{
	name: "small-mixed",
	params: map[string]any{"k": 4, "r": 2, "unit": 128 * kib, "nodes": 6, "clients": clients,
		"slab_threshold": 4 * kib,
		"objects":        "5000 x 256 B-4 KiB (slab-packed), 500 x 16-256 KiB, 8 x 16 MiB; Zipf(s=1.1) over tiny+mid keys",
		"mix":            "60% GET + 12% overwrite PUT on tiny/mid, 20% 4 KiB range GET + 8% in-place 4 KiB PATCH on 16 MiB"},
	threshold: 4 * kib,
	build:     buildStore(4 * kib),
	k:         4, r: 2,
	objects: func(rng *rand.Rand) []*object {
		var objs []*object
		objs = append(objs, makeObjects("tiny", stratifiedSizes(rng, 5000, 256, 4*kib), 4*kib)...)
		objs = append(objs, makeObjects("mid", stratifiedSizes(rng, 500, 16*kib, 256*kib), 4*kib)...)
		sizes := make([]int64, 8)
		for i := range sizes {
			sizes[i] = 16 * mib
		}
		objs = append(objs, makeObjects("big", sizes, 4*kib)...)
		assign(objs)
		return objs
	},
	mix: []share{{opGet, 15}, {opPut, 3}, {opRangeGet, 5}, {opPatch, 2}},
	next: func(rng *rand.Rand, k *clientKeys, kind opKind) request {
		switch kind {
		case opGet:
			return request{kind: opGet, obj: k.zipfSet[k.zipf.Uint64()]}
		case opPut:
			o := k.zipfSet[k.zipf.Uint64()]
			return request{kind: opPut, obj: o, start: newStart(rng, o.v.start)}
		case opRangeGet:
			o := k.big[rng.Intn(len(k.big))]
			return request{kind: opRangeGet, obj: o, off: rng.Int63n(o.v.size - 4*kib + 1), n: 4 * kib}
		default:
			o := k.big[rng.Intn(len(k.big))]
			return request{kind: opPatch, obj: o, off: rng.Int63n(o.v.size/(4*kib)) * 4 * kib, n: 4 * kib,
				start: rng.Int63n((poolSize-4*kib)/8) * 8}
		}
	},
}

var clusterGateway = serveWorkload{
	name: "cluster-gateway",
	params: map[string]any{"k": 2, "r": 1, "unit": 128 * kib, "peers": 3, "write_quorum": 1, "clients": clients,
		"objects": "32 x 4-16 MiB read-write + 8 x 4-16 MiB read-only degraded (peer 2 shard deleted)",
		"mix":     "35% overwrite PUT, 50% GET, 15% degraded GET"},
	build: buildCluster,
	k:     2, r: 1,
	objects: func(rng *rand.Rand) []*object {
		rw := makeObjects("obj", stratifiedSizes(rng, 32, 4*mib, 16*mib), 0)
		assign(rw)
		ro := readOnly(makeObjects("degraded", stratifiedSizes(rng, 8, 4*mib, 16*mib), 0))
		return append(rw, ro...)
	},
	degrade: dropPeerShard,
	mix:     largeStream.mix,
	next:    largeStream.next,
}

// clientKeysFor builds client c's key view. Its GET and PUT cycles are
// separate seeded rotations over the same keys.
func clientKeysFor(rng *rand.Rand, w *serveWorkload, objs []*object, c int) *clientKeys {
	k := &clientKeys{mix: &mixer{shares: w.mix}}
	var own, ro []*object
	byClass := map[string][]*object{}
	for _, o := range objs {
		switch {
		case o.owner < 0:
			ro = append(ro, o)
		case o.owner == c:
			own = append(own, o)
			byClass[o.class] = append(byClass[o.class], o)
		}
	}
	k.puts.objs = balancedOrder(own, rng.Intn(len(own)))
	k.gets.objs = balancedOrder(own, rng.Intn(len(own)))
	k.ro.objs = balancedOrder(ro, rng.Intn(len(ro)+1))
	k.big = byClass["big"]
	// The Zipf ranks interleave tiny and mid keys by their counts, each
	// class from its median size outwards. Which class and size sit at the
	// hottest ranks then does not change from seed to seed; the draws do.
	if w.threshold > 0 {
		k.zipfSet = interleave(balancedOrder(byClass["tiny"], 1), balancedOrder(byClass["mid"], 1))
		k.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(k.zipfSet)-1))
	}
	return k
}

// populate writes every object straight into the backend, in parallel:
// slab-packed objects with many writers so the group commit batches them
// as a busy server would, the rest with one writer per client.
func populate(ctx context.Context, s *stack, pool *payloadPool, rng *rand.Rand, objs []*object) (map[string]server.ObjectMeta, error) {
	metas := make(map[string]server.ObjectMeta, len(objs))
	var mu sync.Mutex
	var firstErr error
	put := func(o *object) {
		m, _, err := s.backend.Put(ctx, o.name, pool.reader(&o.v), o.v.size)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("set-up PUT %s: %w", o.name, err)
		}
		metas[o.name] = m
	}
	for _, o := range objs {
		o.v.start = newStart(rng, -1)
	}
	var small, rest []*object
	for _, o := range objs {
		if o.slab {
			small = append(small, o)
		} else {
			rest = append(rest, o)
		}
	}
	run := func(list []*object, workers int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(list) {
						return
					}
					put(list[i])
				}
			}()
		}
		wg.Wait()
	}
	run(rest, clients)
	run(small, 64)
	return metas, firstErr
}

// diskBytes sums the sizes of every regular file under dir.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// clientLog is what one client records during the measured phase.
type clientLog struct {
	lat       [numOpKinds][]time.Duration
	attempted int
	failed    int
	faults    []error // mismatches and failures other than a 429
	shed      int     // requests refused with 429
}

// loop runs one closed-loop client until deadline.
func loop(ctx context.Context, c *client, w *serveWorkload, keys *clientKeys, rng *rand.Rand, deadline time.Time, log *clientLog) {
	for time.Now().Before(deadline) {
		q := w.next(rng, keys, keys.mix.next(rng))
		t0 := time.Now()
		res := c.do(ctx, q)
		d := time.Since(t0)
		log.attempted++
		if res.err != nil {
			// A 429 is admission control doing its job; any other failure
			// is the program losing or refusing data, and fails the run.
			log.failed++
			if res.shed {
				log.shed++
			} else {
				log.faults = append(log.faults, res.err)
			}
			continue
		}
		if res.mismatch != nil {
			log.faults = append(log.faults, res.mismatch)
		}
		log.lat[q.kind] = append(log.lat[q.kind], d)
	}
}

// readBack GETs every object client c owns (client 0 also reads the
// read-only set) and checks it against the model. Every failure here is a
// fault: the object could not be shown to hold its bytes.
func readBack(ctx context.Context, c *client, objs []*object, log *clientLog) {
	for _, o := range objs {
		if o.owner != c.id && !(o.owner < 0 && c.id == 0) {
			continue
		}
		kind := opGet
		if o.owner < 0 {
			kind = opDegradedGet
		}
		res := c.do(ctx, request{kind: kind, obj: o})
		log.attempted++
		if res.err != nil {
			log.failed++
			log.faults = append(log.faults, res.err)
		}
		if res.mismatch != nil {
			log.faults = append(log.faults, res.mismatch)
		}
	}
}
