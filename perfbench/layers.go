package main

import (
	"strings"
	"time"

	"gemmec"
)

// layerMetric declares one per-layer metric of the traced run.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerMetrics lists every per-layer metric in report order. Every
// workload reports all of them; a layer a workload does not reach reads 0
// (no peer RPCs on a single node, no vfs calls in the cluster, whose
// PeerStores write through the os package).
var layerMetrics = []layerMetric{
	{"http.get_self_ms", "ms", "lower"},
	{"http.put_self_ms", "ms", "lower"},
	{"http.shed_count", "count", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.stream_ms", "ms", "lower"},
	{"store.put_self_ms", "ms", "lower"},
	{"store.get_self_ms", "ms", "lower"},
	{"sched.tasks_per_op", "count", "lower"},
	{"sched.wait_ms_total", "ms", "lower"},
	{"sched.wait_p99_ms", "ms", "lower"},
	{"sched.queue_peak", "count", "lower"},
	{"pipeline.stripes_per_op", "count", "lower"},
	{"pipeline.read_stall_ms", "ms", "lower"},
	{"pipeline.kernel_stall_ms", "ms", "lower"},
	{"pipeline.write_stall_ms", "ms", "lower"},
	{"pipeline.demotions", "count", "lower"},
	{"vfs.opens_per_get", "count", "lower"},
	{"vfs.creates_per_put", "count", "lower"},
	{"vfs.renames_per_put", "count", "lower"},
	{"vfs.open_ms", "ms", "lower"},
	{"vfs.read_ms", "ms", "lower"},
	{"vfs.write_ms", "ms", "lower"},
	{"vfs.bytes_read_per_user_byte", "ratio", "lower"},
	{"vfs.bytes_written_per_user_byte", "ratio", "lower"},
	{"vfs.errors", "count", "lower"},
	{"core.encode_gbps", "GB/s", "higher"},
	{"core.reconstruct_gbps", "GB/s", "higher"},
	{"core.kernel_share", "ratio", "lower"},
	{"peer.rpcs_per_put", "count", "lower"},
	{"peer.rpcs_per_get", "count", "lower"},
	{"peer.put_shard_ms", "ms", "lower"},
	{"peer.get_shard_ms", "ms", "lower"},
	{"peer.meta_ms", "ms", "lower"},
	{"peer.bytes_sent_per_user_byte", "ratio", "lower"},
	{"peer.errors", "count", "lower"},
	{"runtime.cpu_s_per_op", "s", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.residual_pct", "%", "lower"},
}

// slabPatchMetrics are the per-layer metrics of the slab and PATCH paths.
// Only small-mixed reaches them, and BENCHMARK.json does not list it, so
// they are printed but left out of the result object.
var slabPatchMetrics = []layerMetric{
	{"store.patch_ms", "ms", "lower"},
	{"store.small_put_ms", "ms", "lower"},
	{"store.slab_puts_per_flush", "count", "higher"},
	{"store.patch_inplace_ratio", "ratio", "higher"},
}

// layerInput is everything the traced phase measured.
type layerInput struct {
	spans     []Span
	pipes     []gemmec.StreamStats
	threshold int64 // slab threshold, 0 without slabs
	shed      int

	slabPuts, slabFlushes int64
	queuePeak             int64

	untracedOpsS, tracedOpsS float64
	cpuS                     float64
	allocBytes               uint64
	gcCycles                 uint32

	coreEncodeGBps, coreReconstructGBps float64
	// residual, when set, replaces the span-based residual share (the
	// codec workload has no handler span).
	residualPct *float64
}

// ratio is a/b, or 0 when b is 0: a layer the workload never reached.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// computeLayers derives every per-layer metric from the traced phase.
// Means are per call of the layer unless the name says per op (one
// client request) or total.
func computeLayers(in layerInput) map[string]float64 {
	out := map[string]float64{}
	type req struct {
		root     *Span
		handler  *Span
		store    []*Span
		children []interval
		vfsOpens int
		peerRPCs int
	}
	reqs := map[uint64]*req{}
	get := func(id uint64) *req {
		r := reqs[id]
		if r == nil {
			r = &req{}
			reqs[id] = r
		}
		return r
	}
	var (
		sum   = map[string]float64{} // total duration in ms per span name
		count = map[string]float64{} // calls per span name
		bytes = map[string]float64{} // bytes per span name
		errs  = map[string]float64{} // failed calls per layer
		waits []time.Duration
	)
	for i := range in.spans {
		s := &in.spans[i]
		d := float64(s.End-s.Start) / 1e6
		sum[s.Name] += d
		count[s.Name]++
		bytes[s.Name] += float64(s.Bytes)
		layer, _, _ := strings.Cut(s.Name, ".")
		if s.Err {
			errs[layer]++
		}
		switch {
		case s.Name == "client":
			get(s.Req).root = s
		case s.Name == "http.handler":
			get(s.Req).handler = s
		case layer == "store":
			get(s.Req).store = append(get(s.Req).store, s)
		case layer == "vfs", layer == "peer", layer == "sched":
			if s.Req == 0 {
				break // background work: counted in totals, attributed to no request
			}
			r := get(s.Req)
			r.children = append(r.children, s.interval())
			if s.Name == "vfs.open" {
				r.vfsOpens++
			}
			if layer == "peer" {
				r.peerRPCs++
			}
		}
		if s.Name == "sched.wait" {
			waits = append(waits, time.Duration(s.End-s.Start))
		}
	}

	var (
		ops, puts, gets, reads, cleanBig   float64
		putSelfHTTP, getSelfHTTP           float64
		putSelfStore, getSelfStore         float64
		cleanOpens, putRPCs, getRPCs       float64
		opTime, handlerTime                float64
		userRead, userWritten, userPutOnly float64
		smallPutMs, smallPuts              float64
		patches, inPlace                   float64
	)
	for _, r := range reqs {
		if r.root == nil {
			continue
		}
		ops++
		kind, slab := strings.CutSuffix(r.root.Note, ":slab")
		total := float64(r.root.End - r.root.Start)
		opTime += total
		if r.handler != nil {
			handlerTime += float64(r.handler.End - r.handler.Start)
		}
		var inStore, self float64
		for _, s := range r.store {
			inStore += float64(s.End - s.Start)
			self += float64(selfTime(s.interval(), r.children))
			if s.Name == "store.put" && in.threshold > 0 && s.Bytes <= in.threshold {
				smallPutMs += float64(s.End-s.Start) / 1e6
				smallPuts++
			}
			if s.Name == "store.patch" {
				patches++
				if s.Note == "inplace" {
					inPlace++
				}
			}
		}
		switch kind {
		case "put":
			puts++
			putSelfHTTP += total - inStore
			putSelfStore += self
			putRPCs += float64(r.peerRPCs)
			userWritten += float64(r.root.Bytes)
			userPutOnly += float64(r.root.Bytes)
		case "patch":
			userWritten += float64(r.root.Bytes)
		case "get", "degraded_get", "range_get":
			reads++
			userRead += float64(r.root.Bytes)
			getRPCs += float64(r.peerRPCs)
			if kind == "get" {
				gets++
				getSelfHTTP += total - inStore
				getSelfStore += self
				if !slab {
					cleanBig++
					cleanOpens += float64(r.vfsOpens)
				}
			}
		}
	}

	out["http.get_self_ms"] = ratio(getSelfHTTP, gets) / 1e6
	out["http.put_self_ms"] = ratio(putSelfHTTP, puts) / 1e6
	out["http.shed_count"] = float64(in.shed)

	out["store.put_ms"] = ratio(sum["store.put"], count["store.put"])
	out["store.open_ms"] = ratio(sum["store.open"], count["store.open"])
	out["store.stream_ms"] = ratio(sum["store.stream"], count["store.stream"])
	out["store.patch_ms"] = ratio(sum["store.patch"], count["store.patch"])
	out["store.put_self_ms"] = ratio(putSelfStore, puts) / 1e6
	out["store.get_self_ms"] = ratio(getSelfStore, gets) / 1e6
	out["store.small_put_ms"] = ratio(smallPutMs, smallPuts)
	out["store.slab_puts_per_flush"] = ratio(float64(in.slabPuts), float64(in.slabFlushes))
	out["store.patch_inplace_ratio"] = ratio(inPlace, patches)

	out["sched.tasks_per_op"] = ratio(count["sched.wait"], ops)
	out["sched.wait_ms_total"] = sum["sched.wait"]
	if p, ok := percentile(waits, 99); ok {
		out["sched.wait_p99_ms"] = ms(p)
	} else {
		out["sched.wait_p99_ms"] = 0 // fewer than minBeyond waits beyond p99
	}
	out["sched.queue_peak"] = float64(in.queuePeak)

	var stripes, readStall, kernelStall, writeStall, demotions float64
	for _, st := range in.pipes {
		stripes += float64(st.Stripes)
		readStall += ms(st.ReadStall)
		kernelStall += ms(st.EncodeStall)
		writeStall += ms(st.WriteStall)
		demotions += float64(len(st.Demoted))
	}
	calls := float64(len(in.pipes))
	out["pipeline.stripes_per_op"] = ratio(stripes, ops)
	out["pipeline.read_stall_ms"] = ratio(readStall, calls)
	out["pipeline.kernel_stall_ms"] = ratio(kernelStall, calls)
	out["pipeline.write_stall_ms"] = ratio(writeStall, calls)
	out["pipeline.demotions"] = demotions

	out["vfs.opens_per_get"] = ratio(cleanOpens, cleanBig)
	out["vfs.creates_per_put"] = ratio(count["vfs.create"], puts)
	out["vfs.renames_per_put"] = ratio(count["vfs.rename"], puts)
	out["vfs.open_ms"] = ratio(sum["vfs.open"]+sum["vfs.create"], ops)
	out["vfs.read_ms"] = ratio(sum["vfs.read"], ops)
	out["vfs.write_ms"] = ratio(sum["vfs.write"], ops)
	out["vfs.bytes_read_per_user_byte"] = ratio(bytes["vfs.read"], userRead)
	out["vfs.bytes_written_per_user_byte"] = ratio(bytes["vfs.write"], userWritten)
	out["vfs.errors"] = errs["vfs"]

	out["core.encode_gbps"] = in.coreEncodeGBps
	out["core.reconstruct_gbps"] = in.coreReconstructGBps
	out["core.kernel_share"] = ratio(kernelStall*1e6, opTime)

	out["peer.rpcs_per_put"] = ratio(putRPCs, puts)
	out["peer.rpcs_per_get"] = ratio(getRPCs, reads)
	out["peer.put_shard_ms"] = ratio(sum["peer.put_shard"], count["peer.put_shard"])
	out["peer.get_shard_ms"] = ratio(sum["peer.get_shard"], count["peer.get_shard"])
	out["peer.meta_ms"] = ratio(sum["peer.meta"], count["peer.meta"])
	out["peer.bytes_sent_per_user_byte"] = ratio(bytes["peer.put_shard"]+bytes["peer.meta"], userPutOnly)
	out["peer.errors"] = errs["peer"]

	out["runtime.cpu_s_per_op"] = ratio(in.cpuS, ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(in.allocBytes), ops)
	out["runtime.gc_cycles"] = float64(in.gcCycles)

	out["trace.overhead_pct"] = 100 * ratio(in.untracedOpsS-in.tracedOpsS, in.untracedOpsS)
	if in.residualPct != nil {
		out["trace.residual_pct"] = *in.residualPct
	} else {
		out["trace.residual_pct"] = 100 * ratio(opTime-handlerTime, opTime)
	}
	return out
}
