// Command hftload is the repository's benchmark: a single-process load
// generator that builds the query service — one replica, or a
// publishing primary with two pull replicas behind the failover front —
// in-process on loopback, sends it a seeded request sequence paced by a
// Poisson schedule, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) by name with their
// units. The last line of a workload's output is one JSON object:
//
//	{"correct": true, "attempted": 2100, "failed": 0, "metrics": {"setup_s": {"value": 0.14, "unit": "s"}, ...}}
//
// Exit status: 0 when every answer was right, 1 on a wrong answer or a
// failed set-up, 2 on bad arguments.
//
//	go run ./cmd/hftload -workload hot-tables -seed 1 -seconds 30
//	go run ./cmd/hftload -seed 1 -repeat 5   # every workload, 5 seeds, spreads vs bounds
//	go run ./cmd/hftload -workload fleet-churn -trace 1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// Phase lengths around the measured window, which -seconds sets.
const (
	warmUp       = 5 * time.Second
	satWindow    = 10 * time.Second
	setupRepeats = 7
	publishEvery = time.Second
	// overtime is how long past the window's end a sender that fell
	// behind its schedule may still send.
	overtime = 10 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hftload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("workload", "all", "workload to run: hot-tables, apa-history, fleet-churn, or all")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 30, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics instead")
	repeat := fs.Int("repeat", 1, "run the workload set this many times, on seeds seed, seed+1, …, alternating workload order, and print each metric's median, quartiles and spread against its bound in BENCHMARK.json")
	workdir := fs.String("workdir", "", "directory the fleet's stores are created under (default: the system temp directory)")
	spans := fs.String("spans", "", "directory a traced run writes its spans to (default: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "hftload: want -seconds ≥ 1, -trace 0 or 1, -repeat ≥ 1 and no arguments")
		return 2
	}
	for _, dir := range []string{*workdir, *spans} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "hftload:", err)
			return 1
		}
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(stderr, "hftload:", err)
		return 1
	}
	var chosen []workload
	for _, w := range workloads(e.names) {
		if *which == "all" || *which == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "hftload: unknown workload %q\n", *which)
		return 2
	}
	cfg := config{
		seed:         *seed,
		warm:         warmUp,
		measure:      time.Duration(*seconds) * time.Second,
		sat:          satWindow,
		setups:       setupRepeats,
		overtime:     overtime,
		trace:        *trace == 1,
		workdir:      *workdir,
		spansDir:     *spans,
		publishEvery: publishEvery,
	}

	return runAll(cfg, e, chosen, *repeat, stdout, stderr)
}

// runAll runs the chosen workloads repeat times — seeds cfg.seed,
// cfg.seed+1, …, the workload order reversed on every other pass — and
// returns the exit status.
func runAll(cfg config, e *env, chosen []workload, repeat int, stdout, stderr io.Writer) int {
	code := 0
	runs := make(map[string][]result)
	for k := 0; k < repeat; k++ {
		order := slices.Clone(chosen)
		if k%2 == 1 {
			slices.Reverse(order)
		}
		c := cfg
		c.seed = cfg.seed + uint64(k)
		for _, w := range order {
			res, err := runWorkload(c, w, e)
			if err != nil {
				fmt.Fprintln(stderr, "hftload:", err)
				return 1
			}
			printResult(stdout, c, res)
			runs[w.name] = append(runs[w.name], res)
			if !res.correct {
				code = 1
			}
		}
	}
	if repeat > 1 {
		printSpreads(stdout, chosen, runs, readBounds(stderr))
	}
	return code
}

// printResult prints one workload run: a header, one line per metric,
// the notes, and last the JSON summary line.
func printResult(w io.Writer, cfg config, r result) {
	fmt.Fprintf(w, "# hftload workload=%s seed=%d seconds=%g trace=%v\n", r.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace)
	for _, m := range r.metrics {
		fmt.Fprintln(w, m)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	fmt.Fprintf(w, "%s\n", summaryJSON(r))
}

// summaryJSON is the run's one-line machine-readable result, metrics in
// the order they were measured.
func summaryJSON(r result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		value, _ := json.Marshal(m.value)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, value, unit)
	}
	b.WriteString("}}")
	return b.Bytes()
}

// definition is the part of BENCHMARK.json -repeat reads.
type definition struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBounds maps each end-to-end metric to its regression bound. An
// unreadable or missing definition leaves the bounds unknown, and says
// so on stderr.
func readBounds(stderr io.Writer) map[string]float64 {
	out := make(map[string]float64)
	path, err := findDefinition()
	var raw []byte
	if err == nil {
		raw, err = os.ReadFile(path)
	}
	var d definition
	if err == nil {
		err = json.Unmarshal(raw, &d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hftload: no bounds, the spreads get no verdicts: %v\n", err)
		return out
	}
	for _, m := range d.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// findDefinition returns the BENCHMARK.json of the working directory or
// of the nearest directory above it, so the definition is found from the
// repository root and from cmd/hftload alike.
func findDefinition() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil {
			return path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// printSpreads prints, per workload and metric, the median and
// quartiles over the repeated runs and the spread (Q3−Q1)/median
// against the metric's bound: "steady" below a third of the bound,
// "within" below the bound, "WIDE" beyond it.
func printSpreads(w io.Writer, chosen []workload, runs map[string][]result, bounds map[string]float64) {
	fmt.Fprintf(w, "# spreads over %d runs per workload\n", len(runs[chosen[0].name]))
	fmt.Fprintf(w, "# %-12s %-40s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, wl := range chosen {
		rs := runs[wl.name]
		for mi, m := range rs[0].metrics {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.metrics[mi].value)
			}
			q1, q2, q3 := quartiles(xs)
			spread := ratio(q3-q1, q2)
			verdict, bound := "-", "-"
			if b, ok := bounds[m.name]; ok {
				bound = fmt.Sprintf("%.2f", b)
				switch {
				case spread < b/3:
					verdict = "steady"
				case spread <= b:
					verdict = "within"
				default:
					verdict = "WIDE"
				}
			}
			fmt.Fprintf(w, "  %-12s %-40s %12.6g %12.6g %12.6g %8.4f %6s %s\n", wl.name, m.name, q1, q2, q3, spread, bound, verdict)
		}
	}
	fmt.Fprintln(w, "# "+strings.Repeat("-", 40))
}
