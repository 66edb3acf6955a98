// Command bench is the repository's benchmark: five seeded workloads that
// drive the system the way an operator or household would — over loopback
// HTTP, over the federation wire protocol, through the facade — and report
// end-to-end metrics with tracing off, or per-layer metrics from a separate
// traced run. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	bash bench/run.sh --workload detect_http --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh --workload all --seed 1            # every metric, every workload
//	bash bench/run.sh --workload all --seed 1 --trace 1  # per-layer numbers + span files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fexiot/internal/mat"
)

// Set-up repeats until minSetupTime has passed, at most maxSetups times.
const (
	minSetupTime = 1500 * time.Millisecond
	maxSetups    = 15
)

// shortSeconds is -short's measuring time: with no phase above 0.6 of the
// run, every phase stays under a second.
const shortSeconds = 1.6

// runCfg is what a workload needs to know about this invocation.
type runCfg struct {
	seed    int64
	seconds float64 // measuring time of the run
	short   bool
	workers int
	outDir  string // where trace files and scratch files go
}

// dur is a share of the run's measuring time.
func (c runCfg) dur(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// result is one workload run. e2e holds the gated end-to-end metrics
// (setup_s is added by the caller); named holds the same measurements —
// and the ones that have no gated slot — under the names the operator
// thinks in (detect_p50_ms, cycle_p95_ms, …), printed for humans and
// exported as e2e.* in the traced run.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	named             map[string]float64
	problems          []string // correctness gates that did not hold
}

func (r *result) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// env is a workload after set-up: inputs generated, system trained and
// started, caches warm.
type env interface {
	// run measures the end-to-end metrics with tracing off.
	run(c runCfg) result
	// trace measures the per-layer metrics: a short untraced pass for the
	// scraped counts and the end-to-end reference, then the sequential
	// traced replay recorded into rec.
	trace(c runCfg, rec *recorder) (map[string]float64, result)
	close()
}

type workload struct {
	name  string
	setup func(c runCfg) (env, error)
}

var workloads = []workload{
	{"detect_http", setupDetect},
	{"mixed_http", setupMixed},
	{"stream_cycle", setupStream},
	{"fed_round", setupFed},
	{"audit_batch", setupAudit},
}

// hostInfo is the fingerprint carried by every run.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown", Seed: seed}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time of one run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end")
		short   = flag.Bool("short", false, "smoke mode: every phase at most 1 s, one set-up")
		outDir  = flag.String("out", "bench/out", "directory for trace files")
		summary = flag.Bool("summarize", false, "read result lines from the files given as arguments and print spreads")
	)
	flag.Parse()
	if *summary {
		os.Exit(summarize(flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *short && *seconds > shortSeconds {
		*seconds = shortSeconds
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// One core. The benchmark shares its process with the system under
	// test, on a few vCPUs of a shared host, and what a second core adds
	// there is the cost of waking it: with GOMAXPROCS 2 the same seed and
	// binary repeated within 10–40 %, on one P within 2–7 % (README.md,
	// "One core"). So every workload runs the system as it is deployed
	// on a one-core box — one P, serial kernels, one engine worker — and
	// measures the work on a request's path, not the scheduler. run.sh
	// also starts the process with GOMAXPROCS=1 in its environment: a
	// runtime that shrinks to one P after starting with two keeps a slow
	// mode (2 of 6 runs 25 % slower) that one started with one P lacks.
	runtime.GOMAXPROCS(1)
	mat.SetParallelism(1)
	host := fingerprint(*seed)
	hostJSON, _ := json.Marshal(map[string]hostInfo{"host": host}) // plain fields
	cfg := runCfg{seed: *seed, seconds: *seconds, short: *short, workers: workerCount(), outDir: *outDir}

	code := 0
	for _, w := range todo {
		fmt.Printf("# workload %s  seed %d  seconds %g  trace %d\n", w.name, *seed, *seconds, *trace)
		fmt.Println(string(hostJSON))
		line, err := runWorkload(w, cfg, *trace == 1, host)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		out, _ := json.Marshal(line) // plain fields
		fmt.Println(string(out))
		if !line.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// runWorkload sets the workload up, measures it and builds its result line.
func runWorkload(w workload, cfg runCfg, traced bool, host hostInfo) (resultLine, error) {
	// Set-up is repeated — at least three times and for at least
	// minSetupTime, so a set-up of milliseconds is timed often enough to
	// have a median — and its median reported, so one slow start does not
	// read as a set-up regression; the last instance is measured.
	var e env
	var took []float64
	for t0 := time.Now(); ; {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		if e, err = w.setup(cfg); err != nil {
			return resultLine{}, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t).Seconds())
		if traced || cfg.short || len(took) == maxSetups ||
			(len(took) >= 3 && time.Since(t0) >= minSetupTime) {
			break
		}
	}
	defer e.close()

	line := resultLine{Metrics: map[string]metricValue{}}
	var res result
	if traced {
		rec := newRecorder()
		var layer map[string]float64
		layer, res = e.trace(cfg, rec)
		for k, v := range res.named {
			layer["e2e."+k] = v
		}
		// Every catalogued metric is reported (0 where the layer did no
		// work); a measured metric the catalog lacks is a bug here.
		all := map[string]float64{}
		for _, m := range perLayer {
			all[m.name] = layer[m.name]
			line.Metrics[m.name] = metricValue{layer[m.name], m.unit}
			delete(layer, m.name)
		}
		if len(layer) > 0 {
			return line, fmt.Errorf("metrics missing from the catalog: %v", keys(layer))
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := rec.write(path, traceFile{Workload: w.name, Host: host, Metrics: all}); err != nil {
			return line, err
		}
		fmt.Printf("trace: %d spans -> %s\n", len(rec.spans), path)
	} else {
		res = e.run(cfg)
		res.e2e["setup_s"] = median(took)
		for _, m := range endToEnd {
			v, ok := res.e2e[m.name]
			if !ok || v <= 0 {
				res.fail("end-to-end metric %s not measured (%v)", m.name, v)
			}
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	line.Attempted, line.Failed = res.attempted, res.failed
	if res.failed > 0 {
		res.fail("%d of %d operations failed", res.failed, res.attempted)
	}
	line.Correct = len(res.problems) == 0
	printHuman(line, res)
	if line.Attempted < 1 {
		return line, errors.New("no operation attempted")
	}
	return line, nil
}

func printHuman(line resultLine, res result) {
	for _, k := range keys(res.named) {
		fmt.Printf("  %-28s %14.4f\n", k, res.named[k])
	}
	names := make([]string, 0, len(line.Metrics))
	for k := range line.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %16.4f %s\n", k, line.Metrics[k].Value, line.Metrics[k].Unit)
	}
	fmt.Printf("  fail_ratio %d/%d\n", line.Failed, line.Attempted)
	for _, p := range res.problems {
		fmt.Println("  INCORRECT:", p)
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
