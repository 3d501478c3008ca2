// Command perfbench is gemmec's benchmark: closed-loop workloads over the
// daemon's HTTP surface, the cluster gateway and the streaming library
// API, reporting end-to-end metrics (untraced) or per-layer metrics
// (traced). See README.md for the workloads, metrics and their units.
//
//	perfbench --workload large-stream --seed 1 --seconds 10 --trace 0
//
// Every line but the last is a human-readable report; the last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A byte
// mismatch, a read-back that fails, or any other failed request but a 429
// shed exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gemmec"
)

// endToEnd lists the metrics an untraced run reports, in order. Every
// workload reports each of them; README.md says what put and get mean
// for the codec workload.
var endToEnd = []layerMetric{
	{"setup_s", "s", "lower"},
	{"ops_s", "1/s", "higher"},
	{"put_p50_ms", "ms", "lower"},
	{"get_p50_ms", "ms", "lower"},
	{"stored_bytes_per_user_byte", "ratio", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// setups is how many times an untraced run sets its workload up; setup_s
// is their median.
const setups = 3

var errMismatch = errors.New("output mismatch")

func isMismatch(err error) bool { return errors.Is(err, errMismatch) }

// reportLine is one metric as printed, with its sample count.
type reportLine struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is a run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	lines             []reportLine
	faults            []error  // each one fails the run
	phases            []string // wall time of each phase, for the run-time budget
}

func (r *report) phase(name string, d time.Duration) {
	r.phases = append(r.phases, fmt.Sprintf("%s=%.2fs", name, d.Seconds()))
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.lines = append(r.lines, reportLine{name, value, unit, n})
}

// addLatency reports the median and, when minBeyond samples lie beyond
// it, the 99th percentile of ds.
func (r *report) addLatency(prefix string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	r.add(prefix+"_p50_ms", ms(median(ds)), "ms", len(ds))
	if p, ok := percentile(ds, 99); ok {
		r.add(prefix+"_p99_ms", ms(p), "ms", len(ds))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run runs the benchmark as args ask, writes the report to stdout and
// returns the exit code.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "large-stream, small-mixed, cluster-gateway or codec-stream")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fl.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced, end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1
	// The run's data lives under .bench_build in the working directory
	// (the repository root) and is removed at exit; traced runs leave
	// their span files beside it.
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(dir)
		// Commit the deletion before exiting, so the next run does not
		// start under this one's writeback.
		syscall.Sync()
	}()

	dur := time.Duration(*seconds * float64(time.Second))
	var (
		rep    *report
		params map[string]any
	)
	switch *workload {
	case "codec-stream":
		params = codecParams
		rep, err = runCodec(*seed, dur, traced, dir)
	default:
		w, ok := serveWorkloads[*workload]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
			return 2
		}
		params = w.params
		rep, err = runServe(w, *seed, dur, traced, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, provenance(*workload, *seed, dur, traced, params), rep, traced)
	if !rep.correct {
		return 1
	}
	return 0
}

var serveWorkloads = map[string]*serveWorkload{
	largeStream.name:    &largeStream,
	smallMixed.name:     &smallMixed,
	clusterGateway.name: &clusterGateway,
}

// provenance records where and how a result was measured.
func provenance(workload string, seed int64, dur time.Duration, traced bool, params map[string]any) map[string]any {
	commit := os.Getenv("GEMMEC_COMMIT") // set by run.py in a git checkout
	if commit == "" {
		commit = "unknown (not a git checkout)"
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    dur.Seconds(),
		"traced":     traced,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"params":     params,
		"flush_policy": "Store acknowledges from the page cache and never fsyncs; PeerStore fsyncs each " +
			"shard file and its directory before acknowledging; every working set fits in RAM, so reads are page-cache reads",
		"tuner": "off (TuneTrials 0)",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable lines, then the result object as
// the last line. The result carries the declared metrics of the run's
// kind: end-to-end untraced, per-layer traced.
func printReport(w io.Writer, prov map[string]any, rep *report, traced bool) {
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "# provenance %s\n", pj)
	fmt.Fprintf(w, "# phases %s\n", strings.Join(rep.phases, " "))
	for _, l := range rep.lines {
		fmt.Fprintf(w, "# %-34s %14.6g %-6s n=%d\n", l.name, l.value, l.unit, l.n)
	}
	for _, err := range rep.faults {
		fmt.Fprintf(w, "# FAULT %v\n", err)
	}
	want := endToEnd
	if traced {
		want = layerMetrics
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, m := range want {
		for _, l := range rep.lines {
			if l.name == m.Name {
				metrics[m.Name] = metric{l.value, m.Unit}
			}
		}
		if _, ok := metrics[m.Name]; !ok {
			// A declared metric the workload could not measure is a
			// benchmark bug; failing the run keeps it from passing silently.
			fmt.Fprintf(w, "# MISSING metric %s\n", m.Name)
			rep.correct = false
		}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	fmt.Fprintln(w, string(out))
}

// usage is the process's CPU time and peak RSS so far.
func usage() (cpu time.Duration, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func medianSeconds(ds []time.Duration) float64 { return median(ds).Seconds() }

// runtimeSnap is what the runtime metrics difference across a phase.
type runtimeSnap struct {
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := usage()
	return runtimeSnap{cpu, ms.TotalAlloc, ms.NumGC}
}

// coreRates times direct one-stripe Code.Encode and Code.Reconstruct
// calls (two data units lost) at geometry k, r, unit, each for budget.
func coreRates(k, r, unit int, budget time.Duration) (enc, rec float64, err error) {
	code, err := gemmec.New(k, r, gemmec.WithUnitSize(unit))
	if err != nil {
		return 0, 0, err
	}
	data := seededBytes(int64(k*1000+r), codecSalt, k*unit)
	parity := make([]byte, r*unit)
	lost := min(2, r)
	timeLoop := func(fn func() error) (float64, error) {
		if err := fn(); err != nil { // compile and warm
			return 0, err
		}
		n, start := 0, time.Now()
		for time.Since(start) < budget {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		return float64(n*k*unit) / time.Since(start).Seconds() / 1e9, nil
	}
	if enc, err = timeLoop(func() error { return code.Encode(data, parity) }); err != nil {
		return 0, 0, err
	}
	shards := make([][]byte, k+r)
	rec, err = timeLoop(func() error {
		for i := 0; i < k; i++ {
			shards[i] = data[i*unit : (i+1)*unit]
		}
		for i := 0; i < r; i++ {
			shards[k+i] = parity[i*unit : (i+1)*unit]
		}
		for i := 0; i < lost; i++ {
			shards[i] = nil
		}
		return code.Reconstruct(shards)
	})
	return enc, rec, err
}

// runServe runs one HTTP workload: set-up (setups times untraced, once
// traced), a short warm-up, the measured phase, then a read-back of every
// object.
func runServe(w *serveWorkload, seed int64, dur time.Duration, traced bool, dir string) (*report, error) {
	ctx := context.Background()
	pool := newPayloadPool(seed)
	objs := w.objects(rand.New(rand.NewSource(seed)))
	var rec *Recorder
	n := setups
	if traced {
		rec, n = newRecorder(), 1
	}
	var (
		times []time.Duration
		s     *stack
	)
	rep := &report{correct: true}
	for i := 0; i < n; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		st, err := w.build(sdir, rec)
		if err != nil {
			return nil, err
		}
		metas, err := populate(ctx, st, pool, rand.New(rand.NewSource(seed+1)), objs)
		if err == nil && w.degrade != nil {
			err = w.degrade(st, objs, metas)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		times = append(times, time.Since(t0))
		rep.phase(fmt.Sprintf("setup%d", i), times[i])
		if i < n-1 {
			t1 := time.Now()
			st.close()
			if err := os.RemoveAll(sdir); err != nil {
				return nil, err
			}
			rep.phase("teardown", time.Since(t1))
		} else {
			s = st
		}
	}
	defer s.close()
	// Flush the set-ups' dirty pages and the earlier set-ups' deletions
	// now, so their writeback does not land in the measured phase.
	tSync := time.Now()
	syscall.Sync()
	rep.phase("sync", time.Since(tSync))

	var nextReq atomic.Uint64
	cs := make([]*client, clients)
	keys := make([]*clientKeys, clients)
	rngs := make([]*rand.Rand, clients)
	for c := range cs {
		cs[c] = newClient(c, s.url, pool, rec, &nextReq)
		defer cs[c].close()
		keys[c] = clientKeysFor(rand.New(rand.NewSource(seed*7919+int64(c))), w, objs, c)
		rngs[c] = rand.New(rand.NewSource(seed*104729 + int64(c)))
	}
	phase := func(d time.Duration) ([]*clientLog, time.Duration) {
		logs := make([]*clientLog, clients)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for c := range cs {
			logs[c] = &clientLog{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				loop(ctx, cs[c], w, keys[c], rngs[c], deadline, logs[c])
			}(c)
		}
		wg.Wait()
		return logs, time.Since(start)
	}

	account := func(logs []*clientLog) {
		for _, l := range logs {
			rep.attempted += l.attempted
			rep.failed += l.failed
			rep.faults = append(rep.faults, l.faults...)
		}
	}
	// Warm-up: first-use costs (decoder compiles, connection set-up, the
	// metadata cache) land here, not in the measured phase.
	warm, _ := phase(min(dur/10, 500*time.Millisecond))
	account(warm)

	opsPerSec := func(logs []*clientLog, d time.Duration) float64 {
		done := 0
		for _, l := range logs {
			done += l.attempted - l.failed
		}
		return float64(done) / d.Seconds()
	}
	if !traced {
		logs, elapsed := phase(dur)
		account(logs)
		var lat [numOpKinds][]time.Duration
		failed, attempted := 0, 0
		for _, l := range logs {
			for k := range lat {
				lat[k] = append(lat[k], l.lat[k]...)
			}
			failed += l.failed
			attempted += l.attempted
		}
		rep.add("setup_s", medianSeconds(times), "s", len(times))
		rep.add("ops_s", opsPerSec(logs, elapsed), "1/s", attempted-failed)
		for k := opKind(0); k < numOpKinds; k++ {
			rep.addLatency(opNames[k], lat[k])
		}
		rep.add("error_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	} else {
		base, baseElapsed := phase(dur / 2)
		account(base)
		var before slabCounts
		if s.store != nil {
			before = slabStats(s)
		}
		r0 := snapRuntime()
		rec.on.Store(true)
		logs, elapsed := phase(dur / 2)
		rec.on.Store(false)
		r1 := snapRuntime()
		account(logs)
		spans, pipes := rec.snapshot()
		in := layerInput{
			spans:        spans,
			pipes:        pipes,
			threshold:    w.threshold,
			queuePeak:    rec.queuePeak.Load(),
			untracedOpsS: opsPerSec(base, baseElapsed),
			tracedOpsS:   opsPerSec(logs, elapsed),
			cpuS:         (r1.cpu - r0.cpu).Seconds(),
			allocBytes:   r1.alloc - r0.alloc,
			gcCycles:     r1.gc - r0.gc,
		}
		for _, l := range logs {
			in.shed += l.shed
		}
		if s.store != nil {
			after := slabStats(s)
			in.slabPuts, in.slabFlushes = after.puts-before.puts, after.flushes-before.flushes
		}
		var err error
		in.coreEncodeGBps, in.coreReconstructGBps, err = coreRates(w.k, w.r, 128*kib, 250*time.Millisecond)
		if err != nil {
			return nil, err
		}
		addLayers(rep, in)
		if err := writeSpans(spanPath(dir, w.name, seed), spans); err != nil {
			return nil, err
		}
	}

	// Read every object back and check it against the model.
	tBack := time.Now()
	var wg sync.WaitGroup
	back := make([]*clientLog, clients)
	for c := range cs {
		back[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			readBack(ctx, cs[c], objs, back[c])
		}(c)
	}
	wg.Wait()
	account(back)
	rep.phase("readback", time.Since(tBack))
	if !traced {
		_, rss := usage()
		rep.add("peak_rss_mib", float64(rss)/1024, "MiB", 1)
		// One scrub sweep first reclaims the slabs and orphans the run left
		// dead, so the ratio is the layout's and not a count of how many
		// overwrites the run's throughput allowed before the next sweep.
		tScrub := time.Now()
		if sr := s.backend.ScrubAll(ctx); len(sr.Errors) > 0 {
			for name, e := range sr.Errors {
				rep.faults = append(rep.faults, fmt.Errorf("%w: scrub of %s: %s", errMismatch, name, e))
			}
		}
		live := int64(0)
		for _, o := range objs {
			live += o.v.size
		}
		onDisk, err := diskBytes(s.dir)
		if err != nil {
			return nil, err
		}
		rep.phase("scrub", time.Since(tScrub))
		rep.add("stored_bytes_per_user_byte", float64(onDisk)/float64(live), "ratio", len(objs))
	}
	rep.correct = len(rep.faults) == 0
	return rep, nil
}

// slabCounts is the slab accounting the layer metrics difference.
type slabCounts struct{ puts, flushes int64 }

func slabStats(s *stack) slabCounts {
	st := s.store.Stats()
	return slabCounts{st.SlabPuts, st.SlabFlushes}
}

// spanPath is where a traced run writes its spans: beside the run
// directory, so it survives the run's cleanup.
func spanPath(runDir, workload string, seed int64) string {
	return filepath.Join(filepath.Dir(runDir), fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

func addLayers(rep *report, in layerInput) {
	vals := computeLayers(in)
	ops := 0
	for _, s := range in.spans {
		if s.Name == "client" {
			ops++
		}
	}
	ms := layerMetrics
	if in.threshold > 0 {
		ms = slices.Concat(layerMetrics, slabPatchMetrics)
	}
	for _, m := range ms {
		rep.add(m.Name, vals[m.Name], m.Unit, ops)
	}
}

// runCodec runs the library workload with one caller.
func runCodec(seed int64, dur time.Duration, traced bool, dir string) (*report, error) {
	input := seededBytes(seed, codecSalt, codecInput)
	n := setups
	if traced {
		n = 1
	}
	var (
		times []time.Duration
		env   *codecEnv
	)
	rep := &report{correct: true}
	for i := 0; i < n; i++ {
		env = nil
		runtime.GC() // drop the previous set-up's buffers before the next
		t0 := time.Now()
		e, err := setupCodec(input)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		rep.phase(fmt.Sprintf("setup%d", i), times[i])
		env = e
	}
	rng := rand.New(rand.NewSource(seed))
	account := func(l *codecLog) {
		rep.attempted += l.attempted
		rep.failed += l.failed
		rep.faults = append(rep.faults, l.faults...)
	}
	phase := func(d time.Duration, traced bool) (*codecLog, float64) {
		l := &codecLog{}
		start := time.Now()
		env.loop(rng, start.Add(d), traced, l)
		return l, float64(l.attempted-l.failed) / time.Since(start).Seconds()
	}
	warm, _ := phase(min(dur/10, 500*time.Millisecond), false)
	account(warm)
	gbps := func(ds []time.Duration) float64 {
		return float64(codecInput) / median(ds).Seconds() / 1e9
	}
	if !traced {
		l, opsS := phase(dur, false)
		account(l)
		rep.add("setup_s", medianSeconds(times), "s", len(times))
		rep.add("ops_s", opsS, "1/s", l.attempted-l.failed)
		// put and get are the zero-option calls: the library's write and
		// (two-shard degraded) read of one object.
		rep.addLatency("put", l.lat[callEncode])
		rep.addLatency("get", l.lat[callDecode])
		for k := 0; k < numCalls; k++ {
			rep.addLatency(callNames[k], l.lat[k])
		}
		rep.add("encode_gbps", gbps(l.lat[callEncode]), "GB/s", len(l.lat[callEncode]))
		rep.add("decode_gbps", gbps(l.lat[callDecode]), "GB/s", len(l.lat[callDecode]))
		serial := append(append([]time.Duration(nil), l.lat[callSerialEncode]...), l.lat[callSerialDecode]...)
		rep.add("serial_gbps", 2*float64(codecInput)/(median(l.lat[callSerialEncode])+median(l.lat[callSerialDecode])).Seconds()/1e9,
			"GB/s", len(serial))
		rep.add("error_ratio", ratio(float64(l.failed), float64(l.attempted)), "ratio", l.attempted)
		rep.add("stored_bytes_per_user_byte", float64(env.shardBytes())/float64(codecInput), "ratio", 1)
		_, rss := usage()
		rep.add("peak_rss_mib", float64(rss)/1024, "MiB", 1)
	} else {
		base, baseOps := phase(dur/2, false)
		account(base)
		r0 := snapRuntime()
		l, opsS := phase(dur/2, true)
		r1 := snapRuntime()
		account(l)
		var spans []Span
		var callTime, outside float64
		t := int64(0)
		for i, st := range l.pipes {
			d := l.spanTime[i]
			spans = append(spans, Span{ID: uint64(i + 1), Req: uint64(i + 1), Name: "client",
				Start: t, End: t + int64(d), Note: callNames[l.kinds[i]]})
			t += int64(d)
			callTime += float64(d)
			outside += float64(d - st.Elapsed)
		}
		residual := 100 * ratio(outside, callTime)
		in := layerInput{
			spans:        spans,
			pipes:        l.pipes,
			untracedOpsS: baseOps,
			tracedOpsS:   opsS,
			cpuS:         (r1.cpu - r0.cpu).Seconds(),
			allocBytes:   r1.alloc - r0.alloc,
			gcCycles:     r1.gc - r0.gc,
			residualPct:  &residual,
		}
		var err error
		in.coreEncodeGBps, in.coreReconstructGBps, err = coreRates(codecK, codecR, codecUnit, 250*time.Millisecond)
		if err != nil {
			return nil, err
		}
		addLayers(rep, in)
		if err := writeSpans(spanPath(dir, "codec-stream", seed), spans); err != nil {
			return nil, err
		}
	}
	rep.correct = len(rep.faults) == 0
	return rep, nil
}
