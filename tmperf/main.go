// Command tmperf is the benchmark of record for TriggerMan. It drives
// the system only through its public calls, checks every run against a
// reference computed from the generated inputs, and prints one JSON
// result line. See README.md for the workloads and the metric map.
//
// Usage:
//
//	tmperf --workload cascade --seed 1 --seconds 40 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's span file.
	outDir string
}

// workload runs one named workload and fills res.
type workload func(cfg config, res *result) error

var workloads = map[string]workload{
	"alerts-openloop": runAlertsOpenLoop,
	"cascade":         runCascade,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: alerts-openloop or cascade")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "tmperf"), "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "tmperf: need --workload alerts-openloop|cascade, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	stamp := envStamp(cfg)
	line, _ := json.Marshal(stamp)
	fmt.Printf("env %s\n", line)

	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := run(cfg, &res); err != nil {
		// A failed reference check or a failed call produces no numbers.
		fmt.Fprintf(os.Stderr, "tmperf: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// envStamp records what the figures were measured on.
func envStamp(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes the system's Go sources and go.mod, so a result
// names the code it measured even where no version control is present.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "tmperf") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:12])
}
