// Command perfbench is THOR's benchmark: it runs one named workload against
// the engine's public entry points in this process, checks the outputs and
// prints every metric by name and unit. See README.md for the workloads and
// METRICS.md for the metric catalogue.
//
//	bash perfbench/run.sh --workload serve-replay --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
)

// workload is one traffic mix (see README.md for why each exists).
type workload struct {
	name string
	// clients is the number of closed-loop fill clients.
	clients int
	// routed sends fills through an in-process router.New.
	routed bool
	// novel sends documents the process has never seen.
	novel bool
	// mutate runs an open-loop table writer beside one fill client; the
	// served table is then the knowledge table itself.
	mutate bool
}

var workloads = []workload{
	{name: "serve-replay", clients: 2},
	{name: "serve-novel", clients: 2, novel: true},
	{name: "serve-mutate", clients: 1, mutate: true},
	{name: "router-replay", clients: 2, routed: true},
}

// Run-shape constants. They are part of the workload config hash.
const (
	// setupCount is how many times a run sets the engine up: once before the
	// measured phase (that engine serves it), once in each pause between
	// its slices, and once after it; setup_s is the median of all of them.
	setupCount = slices + 1
	// novelPerSecond sizes serve-novel: it sends novelPerSecond × seconds
	// never-seen documents, a fixed count so that its live heap is
	// comparable across runs.
	novelPerSecond = 450
	// mutateWrites is how many table writes serve-mutate spreads over its
	// measured phase: a fixed count, so its live heap is comparable across
	// runs, and enough that the p95 has ten writes beyond it.
	mutateWrites = 200
	// sampleEvery picks the share of serve-novel and serve-mutate
	// responses kept for the full output check: a response is kept when a
	// seeded hash of its document (serve-novel) or sequence number
	// (serve-mutate) is divisible by it.
	sampleEvery = 32
	// checkVersions caps how many table versions serve-mutate checks
	// responses against (each costs a reference fine-tune).
	checkVersions = 6
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 25, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	out, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stdout := bufio.NewWriter(os.Stdout)
	defer stdout.Flush()
	rec, _ := json.Marshal(map[string]any{"run_record": out.record})
	fmt.Fprintln(stdout, string(rec))
	for _, m := range out.metricOrder {
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", m, out.metrics[m].Value, out.metrics[m].Unit)
	}
	res, _ := json.Marshal(out.result())
	fmt.Fprintln(stdout, string(res))
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is one run's report.
type output struct {
	correct     bool
	attempted   int
	failed      int
	metrics     map[string]metric
	metricOrder []string
	record      runRecord
}

func (o *output) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, ok := o.metrics[name]; !ok {
		o.metricOrder = append(o.metricOrder, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *output) result() map[string]any {
	return map[string]any{
		"correct":   o.correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	}
}

// runRecord is the protocol record printed with every run: what ran, on
// what, from which inputs, and how many samples stand behind each number.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	ConfigHash string         `json:"config_hash"`
	CacheState string         `json:"cache_state"`
	SetupS     []float64      `json:"setup_s_samples"`
	Samples    map[string]int `json:"samples"`
	// TailSupported names, per timed sample set, the highest of p50, p90,
	// p95, p99 and p99.9 with at least ten samples beyond it.
	TailSupported map[string]float64 `json:"tail_supported"`
	// LatencyTailMS is the whole phase's fill latency at p95, p99 and
	// p99.9, each with the sample count in Samples["latency"].
	LatencyTailMS map[string]float64 `json:"latency_tail_ms,omitempty"`
	// Slices are each slice's throughput and median latency.
	Slices  [][2]float64 `json:"slices_rps_p50,omitempty"`
	Checked int          `json:"responses_checked"`
	// SentenceHitShare is the share of attributed sentences that the
	// engine's sentence-level parse cache answered, over the phase's
	// responses kept for the output check (absent when none analyzed a
	// sentence).
	SentenceHitShare *float64 `json:"sentence_cache_hit_share,omitempty"`
	// HeapBaselineMB is the live heap with the harness's inputs built and
	// no engine yet; live_heap_mb is measured above it.
	HeapBaselineMB float64 `json:"heap_baseline_mb"`
	CheckError     string  `json:"check_error,omitempty"`
	WriterLateMS   float64 `json:"writer_late_p50_ms,omitempty"`
	SpansFile      string  `json:"spans_file,omitempty"`
}

// configHash hashes everything that shapes a workload's run besides the
// seed, so two records with equal hashes ran the same configuration.
func configHash(w workload, seconds int) string {
	cfg, _ := json.Marshal(map[string]any{
		"workload": w.name, "clients": w.clients, "routed": w.routed, "novel": w.novel, "mutate": w.mutate,
		"seconds": seconds, "setups": setupCount, "novel_per_second": novelPerSecond,
		"mutate_writes": mutateWrites, "slices": slices,
		"sample_every": sampleEvery, "check_versions": checkVersions,
		"tau": tau, "batch_max": batchMax, "batch_window_ms": batchWindow.Milliseconds(), "queue_depth": queueDepth,
	})
	h := fnv.New64a()
	h.Write(cfg)
	return fmt.Sprintf("%016x", h.Sum64())
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" if absent).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func newRecord(w workload, seed int64, seconds int, traced bool) runRecord {
	state := "warm: every document served once before the measured phase"
	switch {
	case w.novel:
		state = "document-cold: every document is new to the process"
	case w.mutate:
		state = "warm, then invalidated per concept by each table write"
	}
	return runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		ConfigHash: configHash(w, seconds), CacheState: state,
		Samples: map[string]int{}, TailSupported: map[string]float64{},
	}
}
