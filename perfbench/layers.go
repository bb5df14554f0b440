package main

import (
	"runtime"
	"time"
)

// layerInput is everything a traced run measured, for the per-layer metrics.
type layerInput struct {
	writes   []kind // the op kinds that count as writes
	rec      *recorder
	w        window
	nodes    int
	spans    []span
	codec    codecCost
	ages     []float64 // sampled follower StateAge, ms
	late     []float64 // open-loop generator lateness, ms
	failover failoverStats
}

// failoverStats are the per-cycle timings of the failover workload, ms.
type failoverStats struct {
	primaryChange, unavail, catchup []float64
	crashes                         []time.Time
	err                             error // a replica that never caught up
}

// layerMetrics computes every per-layer metric named in BENCHMARK.json. A
// layer a workload does not exercise reads 0.
func layerMetrics(in layerInput) []metric {
	d := in.w.c1.sub(in.w.c0)
	rec := in.rec
	ops := float64(rec.completed())
	per := func(x uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(x) / ops
	}
	perNodeKop := func(x uint64) float64 { return 1000 * per(x) / float64(max(in.nodes, 1)) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	durs := make(map[string][]float64) // µs
	self := selfTimes(in.spans)
	var rootSelf []float64
	var deliverSelf float64
	var applies int
	for _, s := range in.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		switch s.Name {
		case spClientOp:
			if s.Op != 0 {
				rootSelf = append(rootSelf, float64(self[s.ID])/1e3)
			}
		case spDeliver:
			deliverSelf += float64(self[s.ID]) / 1e3
		case spApply:
			if s.Parent != 0 { // applied under a traced stack.deliver, not by f0's syncer
				applies++
			}
		}
	}
	var kvUs []float64
	for _, n := range []string{spExecute, spApply, spRead} {
		kvUs = append(kvUs, durs[n]...)
	}
	applyUs := 0.0
	if applies > 0 {
		applyUs = deliverSelf / float64(applies)
	}

	cpuUsPerOp := 0.0
	if ops > 0 {
		cpuUsPerOp = float64((in.w.rt1.cpu - in.w.rt0.cpu).Microseconds()) / ops
	}
	codecNsPerOp := (in.codec.decodeNs+in.codec.encodeNs)*per(d.net.Sent+d.streamFrames) +
		in.codec.encodeNs*per(d.appends)
	estCPU := 0.0
	if cpuUsPerOp > 0 {
		estCPU = codecNsPerOp / (cpuUsPerOp * 1e3)
	}

	cpuUtil := float64(in.w.rt1.cpu-in.w.rt0.cpu) / (float64(in.w.wall) * float64(runtime.GOMAXPROCS(0)))
	gcFrac := 0.0
	if t := in.w.rt1.totalCPU - in.w.rt0.totalCPU; t > 0 {
		gcFrac = (in.w.rt1.gcCPU - in.w.rt0.gcCPU) / t
	}
	staleTried := d.tooStale + uint64(len(rec.latencies(nil, kStale)))

	out := []metric{
		{"msg.decode_ns_per_frame", "ns", in.codec.decodeNs},
		{"msg.decode_allocs_per_frame", "count", in.codec.decodeAllocs},
		{"msg.encode_ns_per_frame", "ns", in.codec.encodeNs},
		{"msg.encode_allocs_per_frame", "count", in.codec.encodeAllocs},
		{"msg.bytes_per_frame", "B", in.codec.bytes},
		{"msg.est_cpu_frac", "ratio", estCPU},

		{"service.frames_per_op", "count", per(d.streamFrames)},
		{"service.bytes_per_op", "B", per(d.streamB)},
		{"service.self_us_p50", "us", quantile(rootSelf, 0.5)},
		{"service.retries_per_kop", "count", 1000 * per(d.retries)},
		{"service.too_stale_frac", "ratio", ratio(d.tooStale, staleTried)},

		{"replication.request_us_p50", "us", quantile(durs[spRequest], 0.5)},
		{"replication.request_us_p99", "us", quantile(durs[spRequest], 0.99)},
		{"replication.ops_per_batch", "count", ratio(d.batchOps, d.batches)},
		{"replication.apply_us_per_op", "us", applyUs},
		{"replication.lease_read_frac", "ratio", ratio(d.leaseReads, d.leaseReads+d.fallbacks)},
		{"replication.barriers_per_kread", "count", 1000 * ratio(d.barriers, uint64(len(rec.latencies(nil, kGet))))},
		{"replication.barrier_us_p50", "us", quantile(durs[spBarrier], 0.5)},
		{"replication.follower_age_ms_p50", "ms", median(in.ages)},

		{"kvdemo.us_per_op", "us", mean(kvUs)},

		{"storage.syncs_per_kop", "count", perNodeKop(d.syncs)},
		{"storage.sync_us_p50", "us", quantile(durs[spSync], 0.5)},
		{"storage.sync_us_p99", "us", quantile(durs[spSync], 0.99)},
		{"storage.append_bytes_per_op", "B", per(d.appendBytes) / float64(max(in.nodes, 1))},

		{"gbcast.fast_frac", "ratio", ratio(d.fast, d.fast+d.ordered)},
		{"gbcast.boundaries_per_kop", "count", perNodeKop(d.bounds)},
		{"abcast.ordered_per_kop", "count", perNodeKop(d.ordered)},
		{"gbcast.fast_p50_ms", "ms", quantile(rec.latencies(nil, kDeposit), 0.5)},
		{"abcast.ordered_p50_ms", "ms", quantile(rec.latencies(nil, kWithdraw), 0.5)},

		{"rchannel.retransmits_per_kop", "count", 1000 * per(d.retransmits)},

		{"transport.msgs_per_op", "count", per(d.net.Sent)},
		{"transport.bytes_per_op", "B", per(d.net.Bytes)},
		{"transport.dropped_per_kop", "count", 1000 * per(d.net.Dropped)},

		{"membership.view_changes", "count", float64(d.viewSeq)},

		{"runtime.cpu_util", "ratio", cpuUtil},
		{"runtime.gc_cpu_frac", "ratio", gcFrac},
		{"runtime.allocs_per_op", "count", per(in.w.rt1.allocs - in.w.rt0.allocs)},
		{"runtime.alloc_bytes_per_op", "B", per(in.w.rt1.allocBytes - in.w.rt0.allocBytes)},
		{"runtime.sched_lat_p99_us", "us", schedP99(in.w.rt0.sched, in.w.rt1.sched)},

		{"trace.overhead_frac", "ratio", rec.overhead()},
	}
	out = append(out, clientMetrics(rec, in.w, in.writes, untracedParts())...)
	if len(in.failover.crashes) > 0 {
		// The failover workload is not in BENCHMARK.json yet (see README.md).
		out = append(out,
			metric{"replication.primary_change_ms", "ms", median(in.failover.primaryChange)},
			metric{"failover.unavail_ms", "ms", median(in.failover.unavail)},
			metric{"failover.catchup_ms", "ms", median(in.failover.catchup)},
			metric{"loadgen.late_p99_ms", "ms", quantile(in.late, 0.99)})
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
