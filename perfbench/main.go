// Command perfbench is treesched's end-to-end benchmark. It measures the
// path a caller takes — request bytes into a real cmd/schedserver, reply
// bytes out, or the root treesched API for library-sized problems — and,
// in a separate traced run, replays the same inputs in-process through
// each layer's public functions to say which layer spent the time.
//
// Usage (from the root of a checkout; run.sh builds the binaries):
//
//	bash perfbench/run.sh --workload inline-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the gated end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Earlier lines
// print every measured metric with its unit, gated or not, and the
// run's machine block; the same report, with sample counts, goes to a
// JSON file under -out, next to the traced run's span file.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics every workload measures, with
// their units. The gated ones are BENCHMARK.json's end_to_end entries,
// with the same names and units (perfbench_test.go pins the match), and
// make up the result line with --trace 0. The wall-clock latencies and
// ops_per_s are printed and saved but not gated: on a shared host they
// swing by up to twice between spells of minutes (steal up to 60%), so
// ten seeds of one workload straddling two spells spread beyond any
// usable bound. latency_p50_vs_ref, the p50 over the reference
// service's p50 measured in the same run (see ref.go), stays within a
// few percent across those spells and is the gated latency.
var endToEnd = []struct {
	name, unit string
	gated      bool
}{
	{"setup_s", "s", true},
	{"ops_per_s", "1/s", false},
	{"latency_p50_ms", "ms", false},
	{"latency_p99_ms", "ms", false},
	{"ref_p50_ms", "ms", false},
	{"latency_p50_vs_ref", "ratio", true},
	{"ok_share", "share", true},
	{"peak_rss_mb", "MB", true},
	{"certified_ratio_mean", "ratio", true},
}

// gated reports whether the named end-to-end metric is in the result
// line.
func gated(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return m.gated
		}
	}
	return false
}

// layersJSON maps each per-layer metric to its unit, the call it times,
// and the end-to-end metrics and workloads it should move.
//
//go:embed layers.json
var layersJSON []byte

type layerDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	Steady []string `json:"unchanged_on"`
}

func perLayer() ([]layerDoc, error) {
	var doc struct {
		Metrics []layerDoc `json:"metrics"`
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return doc.Metrics, nil
}

// setupRuns is how many times a run sets the system up; setup_s is the
// median.
const setupRuns = 9

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // path of a built cmd/schedserver binary
	out      string // directory for report and span files ("" = none)
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// machine is recorded with every result: results with different
// machine blocks are not comparable.
type machine struct {
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	ServerFlags []string `json:"server_flags,omitempty"`
	// Clients and LoadGOMAXPROCS describe the load generator of the
	// serving workloads: its connection count and its GOMAXPROCS while
	// the window runs.
	Clients        int `json:"clients,omitempty"`
	LoadGOMAXPROCS int `json:"load_gomaxprocs,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload run measured.
type report struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Machine   machine           `json:"machine"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
	Samples   map[string]int64  `json:"samples"`
	SpanFile  string            `json:"span_file,omitempty"`
	WireP50   []float64         `json:"client_p50_ms"` // latency p50 per client
}

func newReport(cfg config) *report {
	return &report{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Machine: machine{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Seed:       cfg.seed,
			Seconds:    cfg.seconds,
		},
		EndToEnd: map[string]metric{},
		Layers:   map[string]metric{},
		Samples:  map[string]int64{},
	}
}

// maxFailureNotes bounds the failure messages a report keeps.
const maxFailureNotes = 20

// fail charges n failed ops to the report with a reason.
func (r *report) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) e2e(name string, v float64) {
	for _, m := range endToEnd {
		if m.name == name {
			r.EndToEnd[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("perfbench: unknown end-to-end metric " + name)
}

// sample is one successful op: when it completed, counted from the
// start of the window, and its latency.
type sample struct {
	at time.Duration
	ms float64
}

// latencyChunk is the number of consecutive samples each latency
// quantile is taken over: enough for ten samples beyond p99.
const latencyChunk = 1000

// throughput records ops_per_s and the latency metrics from each
// client's samples. The samples, in completion order, are cut into
// chunks of the given size (one chunk when there are fewer than two
// chunks' worth). ops_per_s, p50 and p99 are the medians over the chunks
// of each chunk's rate and quantiles, so one stall does not decide a
// run. samples.latency_beyond_p99 is the count of a chunk's samples
// beyond its p99.
func (r *report) throughput(perClient [][]sample, chunk int) {
	var all []sample
	for _, c := range perClient {
		ms := make([]float64, len(c))
		for i, s := range c {
			ms[i] = s.ms
		}
		sort.Float64s(ms)
		r.WireP50 = append(r.WireP50, quantile(ms, 0.5))
		all = append(all, c...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	chunks := max(1, len(all)/chunk)
	var rate, p50, p99 []float64
	for k := 0; k < chunks; k++ {
		lo, hi := k*len(all)/chunks, (k+1)*len(all)/chunks
		if lo == hi {
			continue
		}
		var from time.Duration
		if lo > 0 {
			from = all[lo-1].at
		}
		rate = append(rate, float64(hi-lo)/(all[hi-1].at-from).Seconds())
		ms := make([]float64, 0, hi-lo)
		for _, s := range all[lo:hi] {
			ms = append(ms, s.ms)
		}
		sort.Float64s(ms)
		p50 = append(p50, quantile(ms, 0.50))
		p99 = append(p99, quantile(ms, 0.99))
	}
	per := len(all) / chunks
	r.Samples["latency"] = int64(len(all))
	r.Samples["latency_chunks"] = int64(chunks)
	r.Samples["latency_beyond_p99"] = int64(per) - int64(math.Ceil(0.99*float64(per)))
	r.e2e("ops_per_s", median(rate))
	r.e2e("latency_p50_ms", median(p50))
	r.e2e("latency_p99_ms", median(p99))
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// workloads maps each workload name to its runner. Names are the
// contract BENCHMARK.json and later changes cite.
var workloads = map[string]func(config, *report) error{
	"inline-hot":    runInlineHot,
	"scenario-cold": runScenarioCold,
	"session-churn": runSessionChurn,
	"bulk-scale":    runBulkScale,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs one workload and completes its report.
func runWorkload(cfg config) (*report, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %s, all)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	rep := newReport(cfg)
	if err := run(cfg, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("%s: no op was attempted", cfg.workload)
	}
	rep.e2e("ok_share", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
	for _, m := range endToEnd {
		if _, ok := rep.EndToEnd[m.name]; !ok {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, m.name)
		}
	}
	if cfg.trace {
		layers, err := perLayer()
		if err != nil {
			return nil, err
		}
		for _, l := range layers {
			if _, ok := rep.Layers[l.Name]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %s was not measured", cfg.workload, l.Name)
			}
		}
	}
	return rep, nil
}

// line is the contract's last stdout line: the gated end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) line(prefix string, into *line) {
	into.Attempted += r.Attempted
	into.Failed += r.Failed
	into.Correct = into.Correct && r.Failed == 0
	if r.Trace {
		for k, v := range r.Layers {
			into.Metrics[prefix+k] = v
		}
		return
	}
	for k, v := range r.EndToEnd {
		if gated(k) {
			into.Metrics[prefix+k] = v
		}
	}
}

// print writes the human-readable report: machine block, every metric
// with its unit, failures.
func (r *report) print() {
	mb, _ := json.Marshal(r.Machine)
	fmt.Printf("# %s trace=%t machine=%s\n", r.Workload, r.Trace, mb)
	printMetrics := func(kind string, ms map[string]metric, keep func(string) bool) {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			if keep(k) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-14s %-10s %-26s %14.6g %s\n", r.Workload, kind, k, ms[k].Value, ms[k].Unit)
		}
	}
	printMetrics("end-to-end", r.EndToEnd, gated)
	printMetrics("ungated", r.EndToEnd, func(k string) bool { return !gated(k) })
	printMetrics("per-layer", r.Layers, func(string) bool { return true })
	fmt.Printf("# %s attempted=%d failed=%d client_p50_ms=%.4g samples=%v\n", r.Workload, r.Attempted, r.Failed, r.WireP50, r.Samples)
	for _, f := range r.Failures {
		fmt.Printf("# %s FAILED: %s\n", r.Workload, f)
	}
}

func (r *report) save(dir string) error {
	if dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", r.Workload, r.Machine.Seed, b2i(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: equal seeds give equal inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also replay the inputs in-process with per-layer spans and report per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "path of a built cmd/schedserver binary")
	flag.StringVar(&cfg.out, "out", "", "directory for report and span files")
	refAddr := flag.String("ref-server", "", "serve the reference service on this address instead of benchmarking")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if *refAddr != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", serveRef(*refAddr))
		os.Exit(1)
	}
	if err := mainErr(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// selfPath is this program's executable, which the serving workloads
// start again as the reference service.
var selfPath string

func mainErr(cfg config) error {
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	var err error
	if selfPath, err = os.Executable(); err != nil {
		return err
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	out := line{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runWorkload(c)
		if err != nil {
			return err
		}
		rep.print()
		if err := rep.save(cfg.out); err != nil {
			return err
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		rep.line(prefix, &out)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
