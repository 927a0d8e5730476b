package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/serve"
	"thor/internal/tablestore"
)

// requestTimeout bounds one request; a request that exceeds it counts as
// failed. No request is ever retried.
const requestTimeout = 10 * time.Second

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// fillLoad is closed-loop fill traffic: each run starts clients goroutines,
// each sending its next request when the previous one completes, until the
// deadline passes or, when to > 0, until request to-1 has been sent.
// Request i sends bodies[i % len(bodies)]; successive runs continue the
// sequence, so a phase made of several runs sends each number once.
type fillLoad struct {
	client  *http.Client
	url     string
	bodies  [][]byte
	clients int
	next    int
	to      int
	until   time.Time
	seed    int64
	// check, when set, inspects every completed body and reports whether it
	// is right; keep, when set, is offered every completed body (it must
	// copy what it retains).
	check func(doc int, body []byte) bool
	keep  func(doc int, body []byte)
	// log, when set, receives a client span per request and the response's
	// own timings (a traced phase).
	log *spanLog
}

// fillResult is what fill traffic measured.
type fillResult struct {
	attempted, completed, failed, refused, wrong int
	latMS                                        []float64
	elapsed                                      time.Duration
	timings                                      map[string]fillTimings
	stats                                        []serve.Stats
	rt                                           runtimeDelta
}

// add accumulates o, the result of a later run, into r.
func (r *fillResult) add(o *fillResult) {
	r.attempted += o.attempted
	r.completed += o.completed
	r.failed += o.failed
	r.refused += o.refused
	r.wrong += o.wrong
	r.latMS = append(r.latMS, o.latMS...)
	r.elapsed += o.elapsed
	for k, v := range o.timings {
		r.timings[k] = v
	}
	r.stats = append(r.stats, o.stats...)
	r.rt.allocObjects += o.rt.allocObjects
	r.rt.allocBytes += o.rt.allocBytes
	r.rt.gcCycles += o.rt.gcCycles
	r.rt.peakHeap = max(r.rt.peakHeap, o.rt.peakHeap)
}

// run sends one stretch of traffic and returns its measurements.
func (f *fillLoad) run() *fillResult {
	res := &fillResult{timings: map[string]fillTimings{}}
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	cursor.Store(int64(f.next))
	sampler := startRuntimeSampler()
	start := time.Now()
	for c := 0; c < f.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var lat []float64
			var attempted, completed, failed, refused, wrong int
			timings := map[string]fillTimings{}
			var stats []serve.Stats
			for {
				i := int(cursor.Add(1) - 1)
				if f.to > 0 && i >= f.to || f.to == 0 && time.Now().After(f.until) {
					break
				}
				doc := i % len(f.bodies)
				trace := traceID(f.seed, uint64(i))
				attempted++
				t0 := time.Now()
				status, err := post(f.client, f.url, f.bodies[doc], trace, "", &buf)
				t1 := time.Now()
				switch {
				case err != nil:
					failed++
					continue
				case status == http.StatusServiceUnavailable:
					refused++
					failed++
					continue
				case status != http.StatusOK:
					failed++
					continue
				}
				body := buf.Bytes()
				if f.check != nil && !f.check(doc, body) {
					wrong++
					failed++
					continue
				}
				completed++
				lat = append(lat, float64(t1.Sub(t0))/float64(time.Millisecond))
				if f.keep != nil {
					f.keep(doc, body)
				}
				if f.log != nil {
					f.log.record(trace, spanClientFill, t0, t1)
					var r struct {
						Stats serve.Stats `json:"stats"`
					}
					if json.Unmarshal(body, &r) == nil {
						tm := fillTimings{queueMS: r.Stats.QueueWaitMS, runMS: r.Stats.RunMS}
						for _, st := range r.Stats.Stages {
							tm.stages = append(tm.stages, stageTiming{name: st.Stage, ms: st.TotalMS})
						}
						timings[trace] = tm
						stats = append(stats, r.Stats)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.attempted += attempted
			res.completed += completed
			res.failed += failed
			res.refused += refused
			res.wrong += wrong
			res.latMS = append(res.latMS, lat...)
			for k, v := range timings {
				res.timings[k] = v
			}
			res.stats = append(res.stats, stats...)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.rt = sampler.finish()
	f.next += res.attempted
	return res
}

// post sends one POST with a traceparent (and If-Match, when ifMatch is not
// empty) and reads the whole response into buf.
func post(client *http.Client, url string, body []byte, trace, ifMatch string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent(trace))
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// writeLoad sends table appends on one connection, open loop: a run of n
// writes over a span d makes write j due at start + (j + u)·d/n for a seeded
// u in [0,1), sends it when due (or at once if the writer is behind) and
// times it from when it was due. Each write names the version it expects to
// replace in If-Match; successive runs continue the version and the
// sequence.
type writeLoad struct {
	client  *http.Client
	base    string // the engine's base URL
	gen     *writeGen
	seed    int64
	log     *spanLog
	rng     *rand.Rand
	version uint64
	sent    int
}

func newWriteLoad(client *http.Client, base string, gen *writeGen, seed int64, log *spanLog) *writeLoad {
	return &writeLoad{
		client: client, base: base, gen: gen, seed: seed, log: log,
		rng: rand.New(rand.NewSource(seed ^ 0x7363686564)), version: 1,
	}
}

// writeRecord is one acknowledged write and the table identity GET
// /v1/table reported right after it.
type writeRecord struct {
	update tablestore.RowUpdate
	result tablestore.MutateResult
	info   serve.TableInfo
	latMS  float64
}

// writeResult is what a write phase measured.
type writeResult struct {
	attempted, failed int
	latMS             []float64
	lateMS            []float64 // how late each write was sent
	records           []writeRecord
}

// run sends n writes over d and adds what it measured to res.
func (wl *writeLoad) run(n int, d time.Duration, res *writeResult) {
	start := time.Now()
	var buf bytes.Buffer
	for j := 0; j < n; j++ {
		k := wl.sent
		wl.sent++
		due := start.Add(time.Duration((float64(j) + wl.rng.Float64()) * float64(d) / float64(n)))
		time.Sleep(time.Until(due))
		res.lateMS = append(res.lateMS, float64(time.Since(due))/float64(time.Millisecond))
		u := wl.gen.next()
		body, err := json.Marshal(serve.MutationRequest{Updates: []tablestore.RowUpdate{u}})
		if err != nil {
			panic(err) // a RowUpdate always encodes
		}
		trace := traceID(wl.seed, 1<<48+uint64(k))
		res.attempted++
		sent := time.Now()
		status, err := post(wl.client, wl.base+"/v1/table", body, trace, strconv.FormatUint(wl.version, 10), &buf)
		done := time.Now()
		if err != nil || status != http.StatusOK {
			res.failed++
			continue
		}
		rec := writeRecord{update: u, latMS: float64(done.Sub(due)) / float64(time.Millisecond)}
		if err := json.Unmarshal(buf.Bytes(), &rec.result); err != nil {
			res.failed++
			continue
		}
		if wl.log != nil {
			wl.log.record(trace, spanClientMutate, sent, done)
		}
		if rec.info, err = getTable(wl.client, wl.base, &buf); err != nil {
			res.failed++
			continue
		}
		wl.version = rec.result.Version
		res.latMS = append(res.latMS, rec.latMS)
		res.records = append(res.records, rec)
	}
}

// getTable reads GET /v1/table.
func getTable(client *http.Client, base string, buf *bytes.Buffer) (serve.TableInfo, error) {
	var info serve.TableInfo
	resp, err := client.Get(base + "/v1/table")
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return info, err
	}
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("GET /v1/table: status %d", resp.StatusCode)
	}
	return info, json.Unmarshal(buf.Bytes(), &info)
}

// runtimeDelta is what the Go runtime counted across a phase.
type runtimeDelta struct {
	allocObjects uint64
	allocBytes   uint64
	gcCycles     uint64
	peakHeap     uint64
}

const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

func readRuntime() [4]uint64 {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mHeapObjects}}
	metrics.Read(s)
	var out [4]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// runtimeSampler reads the runtime counters at the start and end of a phase
// and polls the live heap every 10ms in between for its peak.
type runtimeSampler struct {
	start [4]uint64
	peak  atomic.Uint64
	stop  chan struct{}
	done  chan struct{}
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{start: readRuntime(), stop: make(chan struct{}), done: make(chan struct{})}
	rs.peak.Store(rs.start[3])
	go func() {
		defer close(rs.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-t.C:
				if h := readRuntime()[3]; h > rs.peak.Load() {
					rs.peak.Store(h)
				}
			}
		}
	}()
	return rs
}

func (rs *runtimeSampler) finish() runtimeDelta {
	close(rs.stop)
	<-rs.done
	end := readRuntime()
	peak := rs.peak.Load()
	if end[3] > peak {
		peak = end[3]
	}
	return runtimeDelta{
		allocObjects: end[0] - rs.start[0],
		allocBytes:   end[1] - rs.start[1],
		gcCycles:     end[2] - rs.start[2],
		peakHeap:     peak,
	}
}

// liveHeapMB forces a full collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
