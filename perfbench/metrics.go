package main

// endToEnd reports the metrics a user of the system sees, from an untraced
// phase.
func endToEnd(out *output, ph *phase, setups []setupTiming) {
	rec := &out.record
	f := ph.fill
	lat := summarize(f.latMS)
	rec.Samples["latency"] = lat.n()
	rec.TailSupported["latency"] = highestSupported(lat.n(), tailCandidates)
	rec.LatencyTailMS = map[string]float64{"p95": lat.at(95), "p99": lat.at(99), "p99.9": lat.at(99.9)}
	var rps, p50 []float64
	for _, w := range ph.slices {
		rec.Slices = append(rec.Slices, [2]float64{w.rps, w.p50})
		rps, p50 = append(rps, w.rps), append(p50, w.p50)
	}
	out.set("throughput_rps", median(rps), "1/s")
	out.set("latency_p50_ms", median(p50), "ms")
	out.set("success_ratio", ratio(out.attempted-out.failed, out.attempted), "ratio")
	var totals []float64
	for _, s := range setups {
		totals = append(totals, s.totalS)
	}
	out.set("setup_s", median(totals), "s")
	out.set("live_heap_mb", ph.liveHeap, "MiB")
	out.set("allocs_per_req", ratio(int(f.rt.allocObjects), f.completed), "count")
}

// layerMetrics reports the per-layer metrics of a traced phase.
func layerMetrics(out *output, ph *phase, setups []setupTiming) {
	rec := &out.record
	f := ph.fill
	var clientOver, handler, serveSelf, routerDur, hopSelf, mutateHandler []float64
	routed, calls := 0, 0
	for _, t := range ph.trees {
		h := t.answering()
		if t.client.Name == spanClientMutate {
			mutateHandler = append(mutateHandler, h.dur())
			continue
		}
		clientOver = append(clientOver, selfTime(t.client, []span{*t.outermost()}))
		handler = append(handler, h.dur())
		serveSelf = append(serveSelf, selfTime(*h, t.children(h.ID)))
		if t.router != nil {
			routed++
			calls += len(t.handlers)
			routerDur = append(routerDur, t.router.dur())
			hopSelf = append(hopSelf, selfTime(*t.router, t.handlers))
		}
	}
	var queue, run []float64
	stageMS := map[string]float64{}
	var docs, cands, ents, batchDocs int
	for _, st := range f.stats {
		queue = append(queue, st.QueueWaitMS)
		run = append(run, st.RunMS)
		batchDocs += st.BatchDocs
		docs += st.Documents
		cands += st.Candidates
		ents += st.Entities
		for _, sc := range st.Stages {
			stageMS[sc.Stage] += sc.TotalMS
		}
	}
	n := len(f.stats)
	rec.Samples["spans_fill"] = len(handler)
	rec.Samples["spans_mutate"] = len(mutateHandler)
	rec.Samples["responses"] = n

	put := func(name string, xs []float64, p float64) {
		s := summarize(xs)
		rec.TailSupported[name] = highestSupported(s.n(), tailCandidates)
		out.set(name, s.at(p), "ms")
	}
	put("client.overhead_ms.p50", clientOver, 50)
	put("serve.handler_ms.p50", handler, 50)
	put("serve.handler_ms.p99", handler, 99)
	put("serve.queue_wait_ms.p50", queue, 50)
	put("serve.queue_wait_ms.p99", queue, 99)
	put("serve.self_ms.p50", serveSelf, 50)
	put("serve.self_ms.p99", serveSelf, 99)
	out.set("serve.batch_docs.mean", ratio(batchDocs, n), "count")
	out.set("serve.refused", float64(f.refused), "count")
	put("thor.run_ms.p50", run, 50)
	put("thor.run_ms.p99", run, 99)
	for _, stage := range []string{"segment", "pos_tag", "dep_parse", "phrase_extract", "match", "refine"} {
		out.set("thor.stage."+stage+"_ms", stageMS[stage]/float64(max(n, 1)), "ms")
	}
	out.set("thor.candidates_per_doc", ratio(cands, docs), "count")
	out.set("thor.entities_per_candidate", ratio(ents, cands), "ratio")
	hits, _ := sentenceHitShare(f.stats)
	out.set("thor.sentence_cache_hit_share", hits, "ratio")

	var space, table, newServer []float64
	for _, s := range setups {
		space = append(space, s.spaceMS)
		table = append(table, s.tableMS)
		newServer = append(newServer, s.newServerMS)
	}
	out.set("setup.space_load_ms", median(space), "ms")
	out.set("setup.table_load_ms", median(table), "ms")
	out.set("setup.new_server_ms", median(newServer), "ms")

	var writeLat []float64
	if ph.write != nil {
		writeLat = ph.write.latMS
	}
	put("mutate.latency_p50_ms", writeLat, 50)
	put("mutate.latency_p95_ms", writeLat, 95)
	put("tablestore.mutate_handler_ms.p50", mutateHandler, 50)
	put("tablestore.mutate_handler_ms.p95", mutateHandler, 95)
	inval, writes := 0, 0
	if ph.write != nil {
		for _, r := range ph.write.records {
			inval += len(r.result.Invalidated)
		}
		writes = len(ph.write.records)
	}
	out.set("tablestore.invalidated_per_mutation", ratio(inval, writes), "count")

	put("router.handler_ms.p50", routerDur, 50)
	put("router.handler_ms.p99", routerDur, 99)
	put("router.hop_self_ms.p50", hopSelf, 50)
	put("router.hop_self_ms.p99", hopSelf, 99)
	out.set("router.backend_calls_per_req", ratio(calls, routed), "count")

	out.set("runtime.alloc_bytes_per_req", ratio(int(f.rt.allocBytes), f.completed), "B")
	out.set("runtime.gc_cycles_per_kreq", 1000*ratio(int(f.rt.gcCycles), f.completed), "count")
	out.set("runtime.peak_heap_mb", float64(f.rt.peakHeap)/(1<<20), "MiB")
	out.set("fail_ratio", ratio(out.failed, out.attempted), "ratio")

	// The traced run's own end-to-end figures: minus the untraced run's
	// (same workload and seed), they are the tracing overhead.
	lat := summarize(f.latMS)
	out.set("trace.throughput_rps", float64(f.completed)/f.elapsed.Seconds(), "1/s")
	out.set("trace.latency_p50_ms", lat.at(50), "ms")
	out.set("trace.latency_p99_ms", lat.at(99), "ms")
}

// ratio is a/b, or 0 when b is 0 (a layer not on the workload's path).
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
