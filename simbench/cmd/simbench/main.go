// Command simbench runs the serving-stack benchmark. From the repository
// root:
//
//	simbench --workload exact-tight-rmat16 --seed 1 --seconds 20 --trace 0
//	simbench --workload fleet-zipf-ba20k --seed 1 --seconds 20 --trace 1
//	simbench --repeat 10 [--workload NAME] --seconds 20
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). The repeat mode runs
// each workload N times in child processes with seeds 1..N and prints,
// per (workload, metric), the median, the quartiles and the spread
// against the bound BENCHMARK.json gives.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"github.com/exactsim/exactsim/simbench/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed of the request sequence")
	seconds := flag.Int("seconds", 20, "run length; sets the request count (see README)")
	trace := flag.Int("trace", 0, "1 = traced tier-ladder run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload (or --workload) this many times and summarize")
	refs := flag.String("refs", "simbench/refs", "directory of the reference files")
	spans := flag.String("spans", ".bench_build/simbench/spans", "directory traced runs write spans to")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "simbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatMode(*repeat, *workload, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := bench.Run(context.Background(), bench.Config{Workload: *workload, Seed: *seed,
		Seconds: *seconds, Trace: *trace == 1, RefDir: *refs, SpanDir: *spans, Log: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchFile is the part of BENCHMARK.json the repeat mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func repeatMode(n int, only string, seconds int) error {
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := bench.Workloads
	if only != "" {
		workloads = []string{only}
	}
	for _, w := range workloads {
		values := map[string][]float64{}
		var shares []string
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs not correct", w, seed)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s, %d runs, failed/attempted: %s\n", w, n, strings.Join(shares, " "))
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, name := range names {
			vs := values[name]
			q1, _, q3 := bench.Quartiles(vs)
			med, spread := bench.Spread(vs)
			verdict := ""
			if b, ok := bounds[name]; ok {
				verdict = fmt.Sprintf("%6.3f", b)
				if spread > b/3 {
					verdict += "  above bound/3"
				}
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %s\n", name, q1, med, q3, spread, verdict)
		}
	}
	return nil
}

func lastResult(out []byte) (*bench.Result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if last == "" {
		return nil, errors.New("no result line")
	}
	var res bench.Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
