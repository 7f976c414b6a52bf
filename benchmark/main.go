// Command benchmark is the repository's end-to-end benchmark: it boots
// a real-mode EC-Store cluster over loopback TCP inside this process
// and drives it with closed-loop clients. See README.md beside it.
//
//	go run ./benchmark -seed 7 -out results.json        # all workloads, both passes
//	go run ./benchmark -workload hot-read -trace 0      # one untraced run (driver contract)
//	go run ./benchmark -compare old.json new.json       # regression gate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	//lint:ignore ctxfirst program entry: the one root context, canceled by SIGINT/SIGTERM so a stopped run still tears its rig down
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// envelope records where and how a report was taken.
type envelope struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Time       string  `json:"time"`
	Notes      string  `json:"notes"`
}

// report is what -out writes and -compare reads.
type report struct {
	Envelope envelope `json:"envelope"`
	Runs     []result `json:"runs"`
}

func newEnvelope(seed int64, seconds float64) envelope {
	e := envelope{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Clients:    numClients,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Notes: "sandbox latency, not device latency: reads are served from the OS page cache; " +
			"servers run in this process and share its cores with the load generators; " +
			"flush policy: WAL fsync every op, DiskStore.Put fsync per chunk, PutAt unsynced",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wlName := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 1, "workload seed: keys, payload bytes and request sequences derive from it")
	seconds := fs.Float64("seconds", fullSizing.seconds, "length of the measured phase")
	trace := fs.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), -1 = both")
	out := fs.String("out", "", "write the full report as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans as JSON to this file (one workload) or prefix (several)")
	dir := fs.String("dir", ".bench_build/data", "scratch directory for WAL and chunk files; created, and emptied of this run's files on exit")
	compare := fs.Bool("compare", false, "compare two reports: -compare old.json new.json; exit status 1 on any worse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files, got %d", fs.NArg())
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	var todo []*workload
	if *wlName == "all" {
		todo = workloads
	} else if w := workloadByName(*wlName); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", *wlName, strings.Join(workloadNames(), ", "))
	}
	var passes []bool
	switch *trace {
	case 0:
		passes = []bool{false}
	case 1:
		passes = []bool{true}
	case -1:
		passes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or -1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	sz := fullSizing
	sz.seconds = *seconds

	rep := report{Envelope: newEnvelope(*seed, *seconds)}
	for _, w := range todo {
		for _, traced := range passes {
			spansTo := ""
			if traced && *traceOut != "" {
				spansTo = *traceOut
				if len(todo) > 1 {
					spansTo += "." + w.name + ".json"
				}
			}
			res, err := runWorkload(ctx, w, *seed, traced, sz, *dir, spansTo)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Runs = append(rep.Runs, *res)
			printResult(os.Stderr, res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
	}
	// The driver's contract: one workload, one pass, and the last line
	// of standard output is the result object.
	if len(rep.Runs) == 1 {
		return printContractLine(rep.Runs[0])
	}
	for _, r := range rep.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricsOf returns the run's metric set: end-to-end for an untraced
// run, per-layer for a traced one.
func (r result) metricsOf() map[string]metric {
	if r.Traced {
		return r.PerLayer
	}
	return r.EndToEnd
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the human-readable form: every metric by name
// with its unit.
func printResult(w *os.File, r *result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d attempted, %d failed, p99 rests on >= %d samples beyond it per window\n",
		r.Workload, pass, r.Attempted, r.Failed, r.P99Samples)
	m := r.metricsOf()
	for _, name := range sortedNames(m) {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func printContractLine(r result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.metricsOf() {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
