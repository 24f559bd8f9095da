// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload at one seed, measures it for a given number of
// seconds, checks the program's outputs, and prints one JSON result as
// the last line of standard output:
//
//	perfbench --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no metrics registry and no spans. With --trace 1 the run makes one
// untraced and one traced pass and reports the per-layer metrics, the
// tracing overhead (traced minus untraced wall time; the traced pass
// also attaches a metrics registry, so the figure is the cost of both)
// and the self time of every layer; the spans go to <out>/trace/. The
// metric names and units are declared in BENCHMARK.json at the
// repository root; the program refuses to print a result that does not
// match them. See README.md in this directory for the workloads and the
// layer → metric → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what one pass of a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration // measure at least this long; 0 = one iteration
	size    sizes
	lbd     string // lbd binary, for cluster-kill
	out     string // scratch directory for cluster data and spans
	tr      *tracer
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setup     []float64 // seconds per set-up
	ops       []float64 // seconds per operation (see README.md)
	wall      float64   // seconds spent in measured operations
	attempted int
	failed    int
	// base names what attempted counts, for the failed_frac line.
	base   string
	layer  map[string]float64
	detail []detail
	// bad lists the output checks that failed.
	bad []string
	// liveHeapMB is the largest live heap markHeap found.
	liveHeapMB float64
	// fingerprint summarizes the seed-determined outputs of one
	// iteration; every iteration and both passes of a traced run must
	// agree on it.
	fingerprint string
}

// detail is a workload-specific named quantity printed for people; the
// JSON result carries the declared metrics only.
type detail struct {
	name  string
	value string
	unit  string
}

func (o *outcome) set(name string, v float64) {
	if o.layer == nil {
		o.layer = make(map[string]float64)
	}
	o.layer[name] = v
}

// check records a failed output check unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.bad = append(o.bad, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(name, unit string, v any) {
	o.detail = append(o.detail, detail{name: name, value: fmt.Sprint(v), unit: unit})
}

// workloads maps each workload name to its pass and the layers it
// exercises; every per-layer metric of an exercised layer must be set
// by the pass (the tests hold it to that).
var workloads = map[string]struct {
	run    func(*env) (*outcome, error)
	layers []string
}{
	"serve-zipf":      {runServe, []string{"workload", "chord", "sim", "serve", "ktree", "core", "protocol", "go", "trace"}},
	"rebalance":       {runRebalance, []string{"sim", "ktree", "core", "protocol", "livenet", "go", "trace"}},
	"rebalance-lossy": {runLossy, []string{"sim", "ktree", "core", "protocol", "faults", "go", "trace"}},
	"cluster-kill":    {runCluster, []string{"cluster", "wire", "go", "trace"}},
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 3

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: serve-zipf, rebalance, rebalance-lossy, cluster-kill")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 10, "measure at least this many seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		lbd     = fs.String("lbd", "", "lbd binary (cluster-kill)")
		out     = fs.String("out", ".bench_build", "directory for cluster data and span files")
		decl    = fs.String("decl", "BENCHMARK.json", "metric declarations")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(stdout, *name, *seed, *seconds, *trace, *lbd, *out, *decl, full); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func run(stdout io.Writer, name string, seed int64, seconds float64, trace int, lbd, out, decl string, size sizes) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	d, err := readDecl(decl)
	if err != nil {
		return err
	}
	e := &env{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), size: size, lbd: lbd, out: out}
	var res *result
	if trace == 0 {
		o, err := w.run(e)
		if err != nil {
			return err
		}
		o.note("peak_rss_mb", "MB", peakRSSMB())
		printDetails(stdout, name, o)
		res, err = e2eResult(o, d.EndToEnd)
		if err != nil {
			return err
		}
	} else {
		res, err = tracedRun(stdout, name, e, w.run, w.layers, d.PerLayer)
		if err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// tracedRun makes one untraced and one traced pass. Counts, ticks and
// ratios come from the traced pass; every rate (…_per_s) and the go.*
// allocation figures come from the untraced one, so the registry's
// per-event cost does not leak into them.
func tracedRun(stdout io.Writer, name string, e *env, pass func(*env) (*outcome, error), layers []string, decl []declMetric) (*result, error) {
	plain := *e
	plain.seconds = 0
	o1, err := pass(&plain)
	if err != nil {
		return nil, err
	}
	o1.set("go.peak_rss_mb", peakRSSMB())
	traced := plain
	traced.tr = newTracer()
	o2, err := pass(&traced)
	if err != nil {
		return nil, err
	}
	o2.bad = append(o1.bad, o2.bad...)
	o2.check(o1.fingerprint == o2.fingerprint, "traced pass diverged from the untraced one: %s vs %s", o2.fingerprint, o1.fingerprint)
	for k, v := range o1.layer {
		if strings.HasSuffix(k, "_per_s") || strings.HasPrefix(k, "go.") {
			o2.set(k, v)
		}
	}
	o2.set("trace.overhead_s", o2.wall-o1.wall)
	o2.set("trace.spans", float64(len(traced.tr.spans)))
	self := traced.tr.selfTime()
	var total float64
	for _, s := range self {
		total += s
	}
	for _, l := range traceLayers {
		if total > 0 {
			o2.set("trace.self_frac."+l, self[l]/total)
		} else {
			o2.set("trace.self_frac."+l, 0)
		}
	}
	path := filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := traced.tr.write(path); err != nil {
		return nil, err
	}
	o2.note("trace.file", "", path)
	o2.note("trace.untraced_wall_s", "s", o1.wall)
	o2.note("trace.traced_wall_s", "s", o2.wall)
	for _, l := range traceLayers {
		if self[l] > 0 {
			o2.note("trace.self_s."+l, "s", self[l])
		}
	}
	printDetails(stdout, name, o2)
	return fill(o2, decl, o2.layer, layers)
}

// traceLayers are the layers self time is reported for, named after
// the repository's packages.
var traceLayers = []string{"workload", "chord", "sim", "serve", "ktree", "core", "protocol", "livenet", "cluster", "wire"}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func e2eResult(o *outcome, decl []declMetric) (*result, error) {
	if len(o.ops) == 0 || len(o.setup) == 0 {
		return nil, errors.New("no operation or set-up was measured")
	}
	vals := map[string]float64{
		"setup_s":      median(o.setup),
		"op_s":         median(o.ops),
		"live_heap_mb": o.liveHeapMB,
	}
	return fill(o, decl, vals, nil)
}

// fill builds the result from the declared metrics. A declared metric
// the program does not know, or knows under another unit, is an error;
// so is one of an exercised layer that the pass did not set, and one
// the pass set that is not declared. A metric of a layer the workload
// does not exercise reads 0.
func fill(o *outcome, decl []declMetric, vals map[string]float64, exercised []string) (*result, error) {
	res := &result{Correct: len(o.bad) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return nil, errors.New("nothing was attempted")
	}
	declared := make(map[string]bool, len(decl))
	for _, m := range decl {
		declared[m.Name] = true
		unit, ok := units[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %q, which perfbench does not measure", m.Name)
		}
		if unit != m.Unit {
			return nil, fmt.Errorf("BENCHMARK.json gives %q unit %q, perfbench measures it in %q", m.Name, m.Unit, unit)
		}
		v, ok := vals[m.Name]
		if !ok {
			if exercised == nil || slices.Contains(exercised, layerOf(m.Name)) {
				return nil, fmt.Errorf("metric %q was not measured", m.Name)
			}
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: unit}
	}
	for name := range vals {
		if !declared[name] {
			return nil, fmt.Errorf("perfbench measures %q, which BENCHMARK.json does not declare", name)
		}
	}
	return res, nil
}

// layerOf is the layer a per-layer metric belongs to: the text before
// the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

func printDetails(w io.Writer, name string, o *outcome) {
	for _, d := range o.detail {
		fmt.Fprintf(w, "%s: %s = %s %s\n", name, d.name, d.value, d.unit)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%s: failed_frac = %g (%d failed of %d %s)\n", name, frac, o.failed, o.attempted, o.base)
	for _, b := range o.bad {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", name, b)
	}
	if len(o.setup) > 0 && len(o.ops) > 0 {
		fmt.Fprintf(w, "%s: %d set-ups (median %.4f s), %d ops (median %.6g s), %.2f s measured\n",
			name, len(o.setup), median(o.setup), len(o.ops), median(o.ops), o.wall)
	}
}

// declMetric is one metric entry of BENCHMARK.json.
type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

func readDecl(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	d := &declaration{}
	if err := json.Unmarshal(b, d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

// loop runs iter until the pass has measured for e.seconds (at least
// once), then tops the set-up samples up to minSetups with extra, which
// performs and times one set-up only.
func loop(e *env, o *outcome, iter func() error, extra func() (float64, error)) error {
	start := time.Now()
	for {
		if err := iter(); err != nil {
			return err
		}
		if time.Since(start) >= e.seconds {
			break
		}
	}
	for len(o.setup) < minSetups {
		s, err := extra()
		if err != nil {
			return err
		}
		o.setup = append(o.setup, s)
	}
	return nil
}

// agree checks that an iteration reproduced the pass's fingerprint.
func (o *outcome) agree(fp string) {
	if o.fingerprint == "" {
		o.fingerprint = fp
		return
	}
	o.check(fp == o.fingerprint, "iteration fingerprint %s differs from the first iteration's %s", fp, o.fingerprint)
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
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

// peakRSSMB is the peak resident set of this process or of its largest
// waited-for child (the lbd daemons of cluster-kill), in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // Linux: Maxrss in KiB; failure leaves 0
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // same
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}

// settle collects garbage before a measured operation or a timed
// set-up, so every run starts it from the same heap: the collections
// inside it then depend on what it allocates, not on what the step
// before it left behind. The freed pages stay with the process (no
// debug.FreeOSMemory), so the step reuses them instead of faulting in
// fresh ones, whose cost varies on a virtual machine.
func settle() { runtime.GC() }

// timedSetup settles the heap, then times one set-up.
func timedSetup(f func() error) (float64, error) {
	settle()
	return timed(f)
}

// allocMeter sums heap allocations over the measured steps only,
// leaving out the set-up between them.
type allocMeter struct{ mallocs, bytes, m0, b0 uint64 }

func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func (m *allocMeter) start() { m.m0, m.b0 = memCounters() }

func (m *allocMeter) stop() {
	mallocs, bytes := memCounters()
	m.mallocs += mallocs - m.m0
	m.bytes += bytes - m.b0
}

// record sets go.allocs_per_op and go.bytes_per_op over ops operations.
func (m *allocMeter) record(o *outcome, ops int) {
	ops = max(ops, 1)
	o.set("go.allocs_per_op", float64(m.mallocs)/float64(ops))
	o.set("go.bytes_per_op", float64(m.bytes)/float64(ops))
}

// rate is n per second of secs, 0 when nothing was timed.
func rate(n, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return n / secs
}

// markHeap collects garbage while the system under test (sys) is still
// reachable and records the live heap that collection found, in MiB.
// Called at the end of each measured operation, at a fixed point of
// the program, it reads the same number every run at one seed: unlike
// peak RSS, or a live heap sampled whenever the collector happens to
// run, it does not depend on the collector's pacing.
func (o *outcome) markHeap(sys any) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	runtime.KeepAlive(sys)
	o.liveHeapMB = max(o.liveHeapMB, float64(s[0].Value.Uint64())/(1<<20))
}
