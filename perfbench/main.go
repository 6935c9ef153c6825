// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload against the real serving stack, in
// process over loopback TCP, built through the same public constructors
// the arlo-server and arlo-router commands use, checks every reply, and
// prints each metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload twitter-router --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --self-check
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"arlo/internal/core"
	"arlo/internal/tenant"
)

// outDir receives result files and span dumps, relative to the
// directory the command runs in.
const outDir = ".bench_build/perfbench"

// Socket workloads. Rates sit well below the point where the deployment
// flips into a backlog: near 41% of peak_rps on twitter-router and 47% on
// generative, and near half the open-loop rate short-json's batching
// server sustains. All three run their emulated kernels slower than real
// time (TimeScale 10, 10 and 6). At TimeScale 1 their millisecond kernels
// are the size of a timer wake-up on a small virtual machine, and
// twitter-router's p50 and p99 moved by 0.4 and 0.7 of their medians
// between runs. At TimeScale 5 the pooled p99s of twitter-router and
// short-json still moved by 0.30 and 0.37, because the host delayed the
// load generator by 2 to 12 ms at p99; at TimeScale 10 the same delays
// are a smaller share of the tail. short-json at TimeScale 1e-4 measures
// the software stack alone, but there host noise moved its p99 by 0.66
// and its peak_rps by 0.44. Its closed loop takes a tenth of the run
// instead of a fifth, so its open loop holds over 1,000 completions for
// a p99. The latency limits are the 150 ms and 50 ms SLOs scaled the
// same way; generative's limits apply to the server-reported TTFT and
// TPOT, which are modeled time.
var socketSpecs = []*socketSpec{
	{
		Name: "twitter-router", Model: "bert-base",
		Shards: []shardSpec{{"a", 3}, {"b", 5}}, Router: true, Protocol: "wire",
		TimeScale: 10, MaxBatch: 1, RateRPS: 80, LimitMS: 1500,
		Conns: 2, Outstanding: 64, Lengths: "twitter-recalibrated", HostsSim: true,
	},
	{
		Name: "short-json", Model: "bert-base",
		Shards: []shardSpec{{"single", 8}}, Protocol: "json",
		TimeScale: 10, MaxBatch: 8, Ingress: true,
		Tenants: []tenant.Config{
			{ID: "gold", Weight: 3, Capacity: 1e12, RefillPerSec: 1e12},
			{ID: "silver", Weight: 1, Capacity: 1e12, RefillPerSec: 1e12},
		},
		RateRPS: 34, LimitMS: 500, ClosedShare: 0.10,
		Conns: 2, Outstanding: 2, Lengths: "twitter",
	},
	{
		Name: "generative", Model: "bert-base",
		Shards: []shardSpec{{"single", 8}}, Protocol: "wire", Generative: true,
		TimeScale: 6, MaxBatch: 8, Continuous: true, MeanOut: 48, MaxOut: 256,
		RateRPS: 50, TTFTLimitMS: 150, TPOTLimitMS: 10,
		Conns: 2, Outstanding: 64, Lengths: "twitter-recalibrated",
	},
}

// simBursty is the discrete-event workload: ten minutes of
// Twitter-Bursty on 20 Bert-Large GPUs with periodic reallocation.
var simBursty = &simSpec{
	Name: "sim-bursty", Model: "bert-large", GPUs: 20, RateRPS: 2800,
	Duration: 10 * time.Minute,
}

// declaredWorkloads are the workloads BENCHMARK.json lists. Their last
// output line carries exactly the metrics BENCHMARK.json declares (below);
// anything else they measure goes to the printed table and the result
// file. sim-bursty runs under the same command but is not listed, and
// twitter-router's traced run carries its layers: see README.md.
var declaredWorkloads = map[string]bool{"twitter-router": true, "short-json": true, "generative": true}

var declaredEndToEnd = []string{
	"setup_s", "latency_p50_ms", "latency_p99_ms", "slo_attainment", "peak_rps", "heap_peak_mb",
}

var declaredPerLayer = []string{
	"loadgen.late_p99_ms", "process.cpu_cores", "request.self_ms_mean",
	"router.residence_ms_p50", "router.self_ms_mean", "router.route_ms_mean", "router.reroutes", "router.imbalance",
	"serve.residence_ms_p50", "serve.residence_ms_p99",
	"tokenizer.encode_us_p50", "tokenizer.tokens_mean", "wire.codec_ns_p50",
	"tenant.admit_ns_p50", "tenant.refused", "cluster.ingress_wait_ms_mean",
	"cluster.queue_ms_p50", "cluster.queue_ms_p99", "cluster.exec_inflation_p50", "cluster.exec_inflation_p99",
	"cluster.requeues", "cluster.ttft_ms_p50", "cluster.ttft_ms_p99", "cluster.tpot_ms_p50", "cluster.tpot_ms_p99",
	"batcher.batch_size_mean", "batcher.form_wait_ms_mean", "batcher.occupancy_mean",
	"dispatch.decide_ns_p50", "dispatch.peeked_mean", "dispatch.fallback_share", "dispatch.demotion_share",
	"queue.depth_mean", "obs.record_span_ns_p50", "obs.scrape_ms",
	"allocator.allocate_ms", "allocator.calls",
	"trace.overhead_latency_p50", "trace.overhead_peak_rps",
	// sim-bursty's layers, carried by twitter-router's traced run.
	"sim.dispatch.decide_ns_p50", "sim.dispatch.peeked_mean", "sim.dispatch.fallback_share",
	"sim.dispatch.demotion_share", "sim.allocator.allocate_ms", "sim.allocator.calls",
	"allocator.replacements", "sim.self_s", "sim.modeled_p98_ms", "sim.modeled_slo_attainment",
	"sim.requests_per_s", "trace.overhead_sim_requests_per_s",
}

// keepDeclared moves every metric not in names from rep.Metrics to
// rep.Extra.
func keepDeclared(rep *report, names []string) {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	if rep.Extra == nil {
		rep.Extra = map[string]metric{}
	}
	for k, v := range rep.Metrics {
		if !keep[k] {
			rep.Extra[k] = v
			delete(rep.Metrics, k)
		}
	}
}

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 61

// report is the result file of one run.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Provenance map[string]any    `json:"provenance"`
	Spec       any               `json:"spec"`
	Allocation map[string][]int  `json:"allocation,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Extra      map[string]metric `json:"extra,omitempty"`
	Notes      map[string]string `json:"notes,omitempty"`
	Checks     []string          `json:"failed_checks"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "twitter-router, short-json, generative, sim-bursty or all")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "measured seconds per run")
		traceOn   = flag.Int("trace", 0, "1 runs the workload untraced then traced and reports per-layer metrics")
		selfCheck = flag.Bool("self-check", false, "run every workload at tiny size and check the output schema")
	)
	flag.Parse()
	if *selfCheck {
		if err := runSelfCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-check:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: self-check passed")
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"twitter-router", "short-json", "generative", "sim-bursty"}
	}
	agg := line{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		rep, err := run(name, *seed, *seconds, *traceOn == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(2)
		}
		printReport(rep)
		agg.Correct = agg.Correct && rep.Correct
		agg.Attempted += rep.Attempted
		agg.Failed += rep.Failed
		for k, v := range rep.Metrics {
			agg.Metrics[k] = v
			if len(names) > 1 {
				delete(agg.Metrics, k)
				agg.Metrics[name+"."+k] = v
			}
		}
	}
	out, err := json.Marshal(agg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !agg.Correct {
		os.Exit(1)
	}
}

// run executes one workload and writes its result file.
func run(name string, seed int64, seconds float64, traced bool) (*report, error) {
	rep := &report{Workload: name, Seed: seed, Seconds: seconds, Provenance: provenance()}
	if traced {
		rep.Trace = 1
	}
	var tr *tracer
	var err error
	if name == simBursty.Name {
		rep.Spec = simBursty
		tr, err = runSimReport(rep, simBursty, seed, seconds, traced)
	} else {
		spec := specByName(name)
		if spec == nil {
			return nil, fmt.Errorf("unknown workload %q (want twitter-router, short-json, generative, sim-bursty or all)", name)
		}
		rep.Spec = spec
		tr, err = runSocketReport(rep, spec, seed, seconds, traced)
	}
	if err != nil {
		return nil, err
	}
	if declaredWorkloads[name] {
		if traced {
			keepDeclared(rep, declaredPerLayer)
		} else {
			keepDeclared(rep, declaredEndToEnd)
		}
	}
	rep.Correct = len(rep.Checks) == 0
	if rep.Checks == nil {
		rep.Checks = []string{}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, rep.Trace))
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".json", append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.writeSpans(base + "-spans.jsonl"); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func specByName(name string) *socketSpec {
	for _, s := range socketSpecs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func runSocketReport(rep *report, spec *socketSpec, seed int64, seconds float64, traced bool) (*tracer, error) {
	if !traced {
		ph, err := runSocket(spec, seed, seconds, setupReps, nil)
		if err != nil {
			return nil, err
		}
		rep.Metrics, rep.Extra, rep.Notes = ph.endToEnd(spec)
		rep.Allocation = ph.allocation
		rep.Attempted, rep.Failed, rep.Checks = ph.sent, ph.failed, ph.checks
		return nil, nil
	}
	// The traced run measures the same workload twice, untraced then
	// traced, each for half the seconds: per-layer numbers come from the
	// traced half and the gap between the halves is the tracing overhead.
	plain, err := runSocket(spec, seed, seconds/2, 3, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ph, err := runSocket(spec, seed, seconds/2, 3, tr)
	if err != nil {
		return nil, err
	}
	var cost func(rt, length, out int) float64
	if a, err := core.NewSystem(core.WithModel(spec.Model)); err == nil {
		cost = func(rt, length, out int) float64 {
			if rt < 0 || rt >= len(a.Profile.Runtimes) {
				return 0
			}
			r := a.Profile.Runtimes[rt]
			if out > 1 {
				return ms(r.GenCostOf(length, out))
			}
			return ms(r.CostOf(length))
		}
	} else {
		return nil, err
	}
	rep.Metrics = ph.perLayer(spec, tr, plain, cost)
	rep.Allocation = ph.allocation
	if spec.HostsSim {
		if err := hostSim(rep, seed, tr); err != nil {
			return nil, err
		}
	}
	for k, unit := range hostedSimUnits {
		if _, ok := rep.Metrics[k]; !ok {
			rep.Metrics[k] = metric{0, unit}
		}
	}
	ug, _, _ := plain.endToEnd(spec)
	tg, _, notes := ph.endToEnd(spec)
	rep.Extra = map[string]metric{}
	for k, v := range ug {
		rep.Extra["untraced."+k] = v
	}
	for k, v := range tg {
		rep.Extra["traced."+k] = v
	}
	rep.Notes = notes
	rep.Attempted = plain.sent + ph.sent
	rep.Failed = plain.failed + ph.failed
	rep.Checks = append(append(rep.Checks, plain.checks...), ph.checks...)
	return tr, nil
}

func runSimReport(rep *report, spec *simSpec, seed int64, seconds float64, traced bool) (*tracer, error) {
	if !traced {
		ph, err := runSim(spec, seed, seconds, setupReps, nil)
		if err != nil {
			return nil, err
		}
		rep.Metrics, rep.Notes = ph.endToEnd()
		rep.Attempted, rep.Checks = ph.requests, ph.checks
		rep.Failed = ph.res.Rejected
		return nil, nil
	}
	plain, ph, checks, err := runSimTraced(spec, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	rep.Metrics = ph.perLayer(plain)
	rep.Extra, rep.Notes = ph.endToEnd()
	rep.Attempted = plain.requests + ph.requests
	rep.Failed = plain.res.Rejected + ph.res.Rejected
	rep.Checks = checks
	return ph.tracedRes, nil
}

// runSimTraced simulates the trace untraced for seconds (at least once),
// then once traced, and returns both phases and every failed check,
// including a traced modeled summary that differs from the untraced one.
func runSimTraced(spec *simSpec, seed int64, seconds float64) (plain, traced *simPhase, checks []string, err error) {
	if plain, err = runSim(spec, seed, seconds, 3, nil); err != nil {
		return nil, nil, nil, err
	}
	if traced, err = runSim(spec, seed, 0, 3, newTracer()); err != nil {
		return nil, nil, nil, err
	}
	checks = append(plain.checks, traced.checks...)
	if plain.summary != traced.summary {
		checks = append(checks, "traced simulation's modeled summary differs from the untraced one")
	}
	return plain, traced, checks, nil
}

// hostSim runs the sim-bursty simulation, untraced then traced, inside
// another workload's traced run. sim-bursty is not a BENCHMARK.json
// workload, so this is where the listed workloads measure the
// discrete-event engine and repeated allocator solves. Its metrics take
// their hosted names and its spans join tr's.
func hostSim(rep *report, seed int64, tr *tracer) error {
	plain, ph, checks, err := runSimTraced(simBursty, seed, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", simBursty.Name, err)
	}
	for k, v := range ph.perLayer(plain) {
		rep.Metrics[hostedName(k)] = v
	}
	e2e, _ := plain.endToEnd()
	rep.Metrics["sim.modeled_p98_ms"] = e2e["modeled_p98_ms"]
	rep.Metrics["sim.modeled_slo_attainment"] = e2e["modeled_slo_attainment"]
	rep.Metrics["sim.requests_per_s"] = e2e["sim_requests_per_s"]
	for _, c := range checks {
		rep.Checks = append(rep.Checks, simBursty.Name+": "+c)
	}
	tr.adopt(ph.tracedRes)
	return nil
}

// hostedName is the name a sim-bursty per-layer metric takes in another
// workload's traced run: the simulator's dispatch and allocator figures
// get a "sim." prefix, apart from those of the live system.
func hostedName(k string) string {
	if strings.HasPrefix(k, "sim.") || strings.HasPrefix(k, "trace.") || k == "allocator.replacements" {
		return k
	}
	return "sim." + k
}

// hostedSimUnits are the metrics hostSim adds, with their units. A
// listed workload that does not host the simulation reports them as 0.
var hostedSimUnits = map[string]string{
	"sim.dispatch.decide_ns_p50":        "ns",
	"sim.dispatch.peeked_mean":          "levels",
	"sim.dispatch.fallback_share":       "share",
	"sim.dispatch.demotion_share":       "share",
	"sim.allocator.allocate_ms":         "ms",
	"sim.allocator.calls":               "count",
	"allocator.replacements":            "count",
	"sim.self_s":                        "s",
	"sim.modeled_p98_ms":                "ms",
	"sim.modeled_slo_attainment":        "share",
	"sim.requests_per_s":                "1/s",
	"trace.overhead_sim_requests_per_s": "share",
}

// printReport prints every metric by name, value and unit, with its
// time domain where one applies.
func printReport(rep *report) {
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d (%s, GOMAXPROCS %v, %v)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Provenance["go"],
		rep.Provenance["gomaxprocs"], rep.Provenance["cpu_model"])
	print := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Println(" ", title)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("    %-36s %14.6g %-8s %s\n", k, m[k].Value, m[k].Unit, rep.Notes[k])
		}
	}
	if len(rep.Allocation) > 0 {
		fmt.Printf("  allocation (instances per runtime): %v\n", rep.Allocation)
	}
	print("metrics", rep.Metrics)
	print("also measured", rep.Extra)
	fmt.Printf("  attempted %d, failed %d, correct %v\n", rep.Attempted, rep.Failed, len(rep.Checks) == 0)
	for _, c := range rep.Checks {
		fmt.Println("  CHECK FAILED:", c)
	}
}

// provenance records the machine and build a result came from.
func provenance() map[string]any {
	p := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"git_sha":    "unknown",
		"git_dirty":  "unknown",
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_sha"] = s.Value
			case "vcs.modified":
				p["git_dirty"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
