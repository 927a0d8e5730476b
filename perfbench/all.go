package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAll runs every workload, untraced and then traced, each in a fresh
// process so no cache or package-global state carries from one to the next.
// It prints every metric with its unit and the tracing overhead (the traced
// run's throughput and median latency minus the untraced run's), and returns
// 1 if any run failed or produced a wrong output.
func runAll(seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		var runs [2]map[string]metric
		for trace := range runs {
			res, err := runChild(self, w.name, seed, seconds, trace)
			if err != nil {
				fmt.Printf("%s trace=%d: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				code = 1
			}
			runs[trace] = res.Metrics
			fmt.Printf("== %s (trace %d): correct=%v attempted=%d failed=%d\n", w.name, trace, res.Correct, res.Attempted, res.Failed)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("   %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
		}
		if runs[0] != nil && runs[1] != nil {
			fmt.Printf("== %s tracing overhead: throughput %+.1f 1/s, median latency %+.4f ms\n", w.name,
				runs[1]["trace.throughput_rps"].Value-runs[0]["throughput_rps"].Value,
				runs[1]["trace.latency_p50_ms"].Value-runs[0]["latency_p50_ms"].Value)
		}
	}
	return code
}

// childResult is the last line a run prints.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs one workload in a child process and parses its result line.
func runChild(self, workload string, seed int64, seconds, trace int) (*childResult, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("unreadable result: %w", err)
	}
	return &res, nil
}
