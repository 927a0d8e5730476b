package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/datagen"
	"thor/internal/serve"
)

var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// phase is the measured stretch of load and what it produced.
type phase struct {
	fill *fillResult
	// slices are each slice's throughput and median latency.
	slices   []window
	write    *writeResult
	liveHeap float64
	kept     []keptBody
	trees    []*reqTree
}

// keptBody is a response retained for the full output check.
type keptBody struct {
	doc  int
	body []byte
}

// runWorkload runs one workload in this process: inputs, set-up, warm-up,
// the measured phase (traced or not) in slices with a set-up timed in each
// pause between them, the output check, and one more set-up.
func runWorkload(w workload, seed int64, seconds int, traced bool) (*output, error) {
	out := &output{record: newRecord(w, seed, seconds, traced)}
	rec := &out.record
	in, err := buildInputs(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	// The harness's own inputs stay live all run; live_heap_mb is the heap
	// above this baseline.
	rec.HeapBaselineMB = liveHeapMB()

	tp := &tap{}
	var setups []setupTiming
	setup := func() (*engine, error) {
		// Every set-up starts from a collected heap, so whether a GC cycle
		// of earlier garbage lands inside it is not left to chance.
		runtime.GC()
		eng, tm, err := startEngine(in, w.routed, tp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, tm)
		rec.SetupS = append(rec.SetupS, tm.totalS)
		return eng, nil
	}
	// sampleSetup times a set-up of an engine that serves nothing.
	sampleSetup := func() error {
		eng, err := setup()
		if err == nil {
			eng.stop()
		}
		return err
	}
	e, err := setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil {
			e.stop()
		}
	}()

	client := newClient(2)
	defer client.CloseIdleConnections()
	ref := newReference(in.ds.Space, in.knowledge)
	ref.addVersion(1, in.served)
	var buf bytes.Buffer
	info, err := getTable(client, e.engineURL, &buf)
	if err != nil {
		return nil, err
	}
	var checkErr error
	fail := func(err error) {
		if checkErr == nil && err != nil {
			checkErr = err
		}
	}
	fail(sameFingerprints(in.served, info, 1))

	// Warm-up: one pass over the replay documents. Each response's output
	// hash is what every later response must match; the responses
	// themselves are verified in full after the phase, so the reference
	// pipelines are not live during it.
	var replay *replayCheck
	var warm []keptBody
	if !w.novel {
		replay = &replayCheck{want: make([]uint64, len(in.docs))}
		for i, body := range in.bodies {
			status, err := post(client, e.fillURL+"/v1/fill", body, traceID(seed, 1<<40+uint64(i)), "", &buf)
			if err != nil || status != 200 {
				return nil, fmt.Errorf("warm-up %s: status %d: %v", in.docs[i].Name, status, err)
			}
			replay.want[i], _ = outputHash(buf.Bytes())
			warm = append(warm, keptBody{doc: i, body: append([]byte(nil), buf.Bytes()...)})
		}
	}

	// The measured phase.
	var log *spanLog
	if traced {
		log = newSpanLog()
	}
	tp.log.Store(log)
	ph := &phase{}
	var mu sync.Mutex
	var seq atomic.Uint64
	keep := func(doc int, body []byte) {
		key := seq.Add(1)
		if w.novel {
			key = uint64(doc) // each document is sent once
		}
		if sampled(seed, key) {
			mu.Lock()
			ph.kept = append(ph.kept, keptBody{doc: doc, body: append([]byte(nil), body...)})
			mu.Unlock()
		}
	}
	f := &fillLoad{
		client: client, url: e.fillURL + "/v1/fill", bodies: in.bodies, clients: w.clients,
		seed: seed, log: log,
	}
	if w.novel || w.mutate {
		f.keep = keep
	} else {
		f.check = replay.check
	}
	var wl *writeLoad
	if w.mutate {
		wl = newWriteLoad(client, e.engineURL, newWriteGen(in.ds, in.served, seed), seed, log)
		ph.write = &writeResult{}
	}
	// The phase runs in slices: serve-novel sends an equal share of its
	// documents in each, the others run for an equal share of the time, and
	// serve-mutate's writer sends an equal share of its writes over each.
	// Each pause between slices times one set-up, so set-up samples are
	// spread over the whole run rather than bunched at its ends.
	ph.fill = &fillResult{timings: map[string]fillTimings{}}
	sliceDur := time.Duration(seconds) * time.Second / slices
	for k := 0; k < slices; k++ {
		if k > 0 {
			if err := sampleSetup(); err != nil {
				return nil, err
			}
		}
		if w.novel {
			f.to = len(in.bodies) * (k + 1) / slices
		} else {
			f.until = time.Now().Add(sliceDur)
		}
		var wg sync.WaitGroup
		if wl != nil {
			n := mutateWrites*(k+1)/slices - mutateWrites*k/slices
			wg.Add(1)
			go func() {
				defer wg.Done()
				wl.run(n, sliceDur, ph.write)
			}()
		}
		r := f.run()
		wg.Wait()
		ph.slices = append(ph.slices, window{rps: float64(r.completed) / r.elapsed.Seconds(), p50: median(r.latMS)})
		ph.fill.add(r)
	}
	ph.liveHeap = liveHeapMB() - rec.HeapBaselineMB

	tp.log.Store(nil)
	out.attempted, out.failed = ph.fill.attempted, ph.fill.failed
	if ph.write != nil {
		out.attempted += ph.write.attempted
		out.failed += ph.write.failed
	}

	// Output check, outside the timed phase.
	kept, keepVersions := ph.kept, map[uint64]bool{}
	if w.mutate {
		kept, keepVersions = pickVersions(kept, seed)
	}
	// A wrong sampled response or write counts as a failed request.
	if ph.write != nil {
		bad, err := checkWrites(in.served, 1, ph.write.records, ref, keepVersions)
		out.failed += bad
		fail(err)
		if len(ph.write.lateMS) > 0 {
			rec.WriterLateMS = median(ph.write.lateMS)
		}
	}
	for _, k := range warm {
		fail(ref.verify(in.docs[k.doc], k.body))
		rec.Checked++
	}
	var sampleStats []serve.Stats
	for _, k := range kept {
		if err := ref.verify(in.docs[k.doc], k.body); err != nil {
			out.failed++
			fail(err)
		}
		rec.Checked++
		if st, ok := statsOf(k.body); ok {
			sampleStats = append(sampleStats, st)
		}
	}
	if share, ok := sentenceHitShare(sampleStats); ok {
		rec.SentenceHitShare = &share
	}
	if ph.fill.wrong > 0 {
		fail(fmt.Errorf("%d responses differ from their verified warm-up output", ph.fill.wrong))
	}
	if checkErr != nil {
		rec.CheckError = checkErr.Error()
	}
	out.correct = checkErr == nil

	e.stop()
	e = nil
	if err := sampleSetup(); err != nil {
		return nil, err
	}

	if !traced {
		endToEnd(out, ph, setups)
		return out, nil
	}
	log.mu.Lock()
	ph.trees = buildTrees(log.spans, ph.fill.timings)
	log.mu.Unlock()
	rec.SpansFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(rec.SpansFile, ph.trees); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	layerMetrics(out, ph, setups)
	return out, nil
}

// buildInputs generates the workload's inputs from the seed.
func buildInputs(w workload, seed int64, seconds int) (*inputs, error) {
	ds := datagen.Disease(seed)
	in := &inputs{ds: ds}
	switch {
	case w.novel:
		in.served = clearedTable(ds, ds.Train.Subjects, ds.Valid.Subjects, ds.Test.Subjects)
		in.knowledge = ds.Table
		in.docs = novelDocs(ds, seed, novelPerSecond*seconds)
	case w.mutate:
		in.served = ds.Table
		in.docs = ds.Test.Docs
	default:
		in.served = ds.TestTable()
		in.knowledge = ds.Table
		in.docs = ds.Test.Docs
	}
	return in, encodeInputs(in)
}

// sampled reports whether the response with the given sequence number is
// kept for the full output check.
func sampled(seed int64, seq uint64) bool {
	return splitmix(uint64(seed)^seq*0x9e3779b97f4a7c15)%sampleEvery == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pickVersions keeps the responses of at most checkVersions table versions,
// chosen under the seed among those the kept responses name.
func pickVersions(kept []keptBody, seed int64) ([]keptBody, map[uint64]bool) {
	byVersion := map[uint64][]keptBody{}
	for _, k := range kept {
		v := tableVersionOf(k.body)
		byVersion[v] = append(byVersion[v], k)
	}
	versions := make([]uint64, 0, len(byVersion))
	for v := range byVersion {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	rand.New(rand.NewSource(seed)).Shuffle(len(versions), func(i, j int) { versions[i], versions[j] = versions[j], versions[i] })
	if len(versions) > checkVersions {
		versions = versions[:checkVersions]
	}
	keep := map[uint64]bool{}
	var out []keptBody
	for _, v := range versions {
		keep[v] = true
		out = append(out, byVersion[v]...)
	}
	return out, keep
}
