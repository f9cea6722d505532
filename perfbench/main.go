// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the batch study (core.Run + WriteReport) or the
// resident daemon (internal/service behind its HTTP handler), checks that
// every output is correct, and prints every metric by name with its unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload report-paper --seed 20231024 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced replay that times
// the calls into each module's public functions. See perfbench/README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/probe"
)

// DefaultSeed is the paper's seed; the golden check applies only here.
const DefaultSeed = 20231024

// wall is the benchmark's clock: every timing it reports reads it.
var wall = probe.RealClock()

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates a run's metrics, operation counts and check failures.
type result struct {
	names     []string // print order
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	// tails are printed but kept out of the result object: on a shared
	// 2-vCPU machine their ten-seed spread reached 0.22, too close to the
	// largest bound a metric may have (0.25) to gate on.
	tails []string
}

// tail reports a high percentile of samples, with their count.
func (r *result) tail(name string, samples []float64, q float64, unit string) {
	r.tails = append(r.tails, fmt.Sprintf("%-40s %16.6g %s (reported, not gated; n=%d)",
		name, quantile(samples, q), unit, len(samples)))
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation (a timed call or a correctness
// check), failed when ok is false.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// fail records an error that prevents the workload from finishing.
func (r *result) fail(err error) { r.op(false, "%v", err) }

func main() {
	var (
		workload   = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed       = flag.Int64("seed", DefaultSeed, "workload seed (inputs are generated from it)")
		seconds    = flag.Float64("seconds", 20, "measurement window in seconds")
		trace      = flag.Int("trace", 0, "1 = traced per-layer replay instead of the end-to-end run")
		setupChild = flag.Bool("setup-child", false, "internal: run one cold set-up and print it as JSON")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *setupChild { // the parent passes the input seed
		out, err := w.setup(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(1)
		}
		json.NewEncoder(os.Stdout).Encode(out)
		return
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	input := inputSeed(w.population, *seed)
	fmt.Println(stampLine(*workload, *seed, input, *trace))
	res := newResult()
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		w.traced(res, input)
	} else {
		w.run(res, input, budget)
	}
	emit(res)
}

// inputSeed maps the workload seed to the seed the inputs are generated
// from: the first of seed, seed+1, ... whose population has no vendor
// whose mean per-device DoC sits on a Figure 2 bin edge and rounds
// differently depending on summation order. The program sums those means
// in map order, so for such a population the edge's CDF count flips
// between runs and no report digest is reproducible. DefaultSeed maps to
// itself.
func inputSeed(pop studySpec, seed int64) int64 {
	for ; ; seed++ {
		ds := dataset.Generate(dataset.Config{Seed: seed, Scale: pop.scale, AsOf: pop.asOf})
		client, err := analysis.NewClientWorkers(ds, runtime.GOMAXPROCS(0))
		if err != nil {
			return seed // the run itself reports the error
		}
		stable := true
		for vendor := range client.DoCDeviceAll() {
			stable = stable && !edgeOrderSensitive(client.DeviceDoCsForVendor(vendor))
		}
		if stable {
			return seed
		}
	}
}

// edgeOrderSensitive reports whether the mean of docs lies on a Figure 2
// bin edge (a multiple of 0.1) and some summation order changes its bits.
func edgeOrderSensitive(docs []float64) bool {
	mean := func() float64 {
		sum := 0.0
		for _, v := range docs {
			sum += v
		}
		return sum / float64(len(docs))
	}
	first := mean()
	if len(docs) == 0 || math.Abs(first*10-math.Round(first*10)) > 1e-8 {
		return false
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rng.Shuffle(len(docs), func(a, b int) { docs[a], docs[b] = docs[b], docs[a] })
		if mean() != first {
			return true
		}
	}
	return false
}

// workload binds a name to its input population, set-up probe,
// end-to-end run, and traced replay.
type workload struct {
	population studySpec
	setup      func(seed int64) (setupOut, error)
	run        func(res *result, seed int64, budget time.Duration)
	traced     func(res *result, seed int64)
}

// setupOut is what one cold set-up in a fresh process reports.
type setupOut struct {
	Seconds float64 `json:"seconds"`
	// Digest is the SHA-256 of the report the set-up produced: the study
	// report, or the daemon's warm snapshot report.
	Digest string `json:"digest"`
}

var workloads = map[string]workload{
	"report-paper":   studyWorkload(paperConfig),
	"report-scale10": studyWorkload(scale10Config),
	"report-drift":   studyWorkload(driftConfig),
	"daemon-ingest":  {population: daemonPopulation, setup: daemonSetup, run: daemonRun, traced: daemonTraced},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkRoot makes sure the benchmark runs from a repository checkout: it
// reads the seeded golden report from there.
func checkRoot() error {
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("not a repository checkout (missing %s): %w", goldenPath, err)
	}
	return nil
}

// coldSetups runs n set-ups, each in a fresh child process, and returns
// their outputs. Children run one at a time so they never compete.
func coldSetups(workload string, seed int64, n int) ([]setupOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	outs := make([]setupOut, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return outs, fmt.Errorf("set-up child %d: %w", i, err)
		}
		var out setupOut
		if err := json.Unmarshal(bytes.TrimSpace(raw), &out); err != nil {
			return outs, fmt.Errorf("set-up child %d: %w", i, err)
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// emit prints every metric as a readable line, then the result object as
// the last line of standard output.
func emit(res *result) {
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	w := bufio.NewWriter(os.Stdout)
	for _, n := range res.names {
		m := res.metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
		if math.IsNaN(m.Value) { // no samples; JSON cannot carry NaN
			delete(res.metrics, n)
		}
	}
	for _, t := range res.tails {
		fmt.Fprintln(w, t)
	}
	failedFrac := float64(res.failed) / math.Max(1, float64(res.attempted))
	fmt.Fprintf(w, "%-40s %16.6g %s (%d of %d operations)\n", "failed_frac", failedFrac, "ratio", res.failed, res.attempted)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics}
	line, _ := json.Marshal(out)
	w.Write(line)
	w.WriteString("\n")
	w.Flush()
}

// stampLine identifies the code and machine behind a result.
func stampLine(workload string, seed, input int64, trace int) string {
	sha := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d input_seed=%d trace=%d git_sha=%s go=%s gomaxprocs=%d nproc=%d",
		workload, seed, input, trace, sha, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// digest is the hex SHA-256 of report bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// quantile is linear interpolation between closest ranks over a copy of
// xs (the "inclusive" method).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs f and returns its wall time in seconds and the heap
// allocations it made.
func timed(f func()) (seconds float64, allocs float64) {
	a0 := mallocs()
	t0 := wall.Now()
	f()
	seconds = wall.Now().Sub(t0).Seconds()
	allocs = float64(mallocs() - a0)
	return seconds, allocs
}

// since is the wall time from t0 in seconds.
func since(t0 time.Time) float64 { return wall.Now().Sub(t0).Seconds() }
