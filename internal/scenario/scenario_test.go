package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/simnet"
)

// TestShortMatrixShape: the CI matrix must exercise at least the 48
// documented configurations plus the paper-scale tolerance case, with
// unique, stable names.
func TestShortMatrixShape(t *testing.T) {
	cases := Short().Cases()
	if len(cases) < 49 {
		t.Fatalf("short matrix has %d cases, want >= 49 (48 + tolerance)", len(cases))
	}
	last := cases[len(cases)-1]
	if !last.Tolerance || last.Scale != 1.0 {
		t.Fatalf("last case must be the paper-scale tolerance case, got %+v", last)
	}
	seen := map[string]bool{}
	for _, c := range cases {
		name := c.Name()
		if seen[name] {
			t.Fatalf("duplicate case name %q", name)
		}
		seen[name] = true
		if c.Workers == c.AltWorkers {
			t.Fatalf("case %s: Workers == AltWorkers defeats the metamorphic check", name)
		}
	}
}

// TestRunCaseInvariants: a single fault-injected cell must pass every
// per-case invariant, including the exact rerun.
func TestRunCaseInvariants(t *testing.T) {
	c := Case{Seed: 3, Scale: 0.06, Workers: 1, AltWorkers: 4, FaultRate: 0.25, MinSNIUsers: 3}
	res, vs, _, err := runCase(context.Background(), c, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("violation: %s", v)
	}
	if res.Reruns != 3 {
		t.Errorf("Reruns = %d, want 3 (base + variant + exact rerun)", res.Reruns)
	}
	if res.Jobs == 0 || res.Devices == 0 {
		t.Errorf("empty run: %+v", res)
	}
	if res.Retries == 0 {
		t.Errorf("fault rate 0.25 produced no retries; injection is not reaching the probe path")
	}
}

// TestRunMatrixTiny: a 4-cell sweep end to end, including the wire
// differential and monotone-growth comparison.
func TestRunMatrixTiny(t *testing.T) {
	m := Matrix{
		Seeds:       []int64{5},
		Scales:      []float64{0.05, 0.1},
		WorkerPairs: [][2]int{{2, 3}},
		FaultRates:  []float64{0, 0.3},
		VantageSets: [][]simnet.Vantage{{simnet.VantageNewYork, simnet.VantageFrankfurt}},
		MinSNIUsers: 3,
	}
	var progress bytes.Buffer
	sum, err := RunMatrix(context.Background(), m, Options{Progress: &progress, WireSample: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK() {
		for _, v := range sum.Violations {
			t.Errorf("violation: %s", v)
		}
	}
	if sum.Configs != 4 {
		t.Errorf("Configs = %d, want 4", sum.Configs)
	}
	if sum.WireRecords == 0 {
		t.Errorf("wire differential checked no records")
	}
	if got := strings.Count(progress.String(), "\n"); got != 4 {
		t.Errorf("progress emitted %d lines, want 4", got)
	}
	var js bytes.Buffer
	if err := sum.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(js.String(), `"configs": 4`) {
		t.Errorf("JSON missing configs field:\n%s", js.String())
	}
}

// TestCancelledMatrixStops: cancellation surfaces as an error, not a
// pass with zero work.
func TestCancelledMatrixStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMatrix(ctx, Short(), Options{}); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
}

// TestGoldenStoreRoundTrip: update writes, check passes, tampering
// fails with a diff that names the changed line.
func TestGoldenStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	body := []byte("alpha\nbeta\ngamma\n")
	g := &GoldenStore{Dir: dir, Update: true}
	if err := g.Check("snap.txt", body); err != nil {
		t.Fatalf("update: %v", err)
	}
	g.Update = false
	if err := g.Check("snap.txt", body); err != nil {
		t.Fatalf("clean check: %v", err)
	}
	tampered := []byte("alpha\nbeta!\ngamma\n")
	err := g.Check("snap.txt", tampered)
	if err == nil {
		t.Fatal("tampered bytes passed the golden check")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("diff does not localize the change: %v", err)
	}
	if err := g.Check("missing.txt", body); err == nil || !strings.Contains(err.Error(), "-update") {
		t.Errorf("missing snapshot must explain regeneration, got: %v", err)
	}
}

// TestGoldenCatchesOffByOne is the demonstration the harness exists
// for: an off-by-one injected into a rendered report table must be
// caught by the golden diff, localized to the corrupted row.
func TestGoldenCatchesOffByOne(t *testing.T) {
	stats := probe.Stats{Jobs: 120, Attempts: 131, Retries: 11, Successes: 117, TransientFailures: 2, TerminalFailures: 1}
	render := func(st probe.Stats) []byte {
		var buf bytes.Buffer
		report.ProbeStats(st).WriteText(&buf)
		return buf.Bytes()
	}
	dir := t.TempDir()
	g := &GoldenStore{Dir: dir, Update: true}
	if err := g.Check("probe_stats.txt", render(stats)); err != nil {
		t.Fatalf("seed golden: %v", err)
	}
	g.Update = false

	// The injected defect: the table builder over-reports attempts by one.
	corrupted := stats
	corrupted.Attempts++
	err := g.Check("probe_stats.txt", render(corrupted))
	if err == nil {
		t.Fatal("off-by-one in a report table slipped past the golden diff")
	}
	if !strings.Contains(err.Error(), "131") || !strings.Contains(err.Error(), "132") {
		t.Errorf("diff should show old and new value, got: %v", err)
	}

	// Sanity: an honest table reconciles with its Stats, so the matrix's
	// structural check stays quiet on the uncorrupted rendering.
	var vs []Violation
	defect := func(invariant, format string, args ...interface{}) {
		vs = append(vs, Violation{Case: "demo", Invariant: invariant})
	}
	checkProbeTableReconcile(stats, defect)
	if len(vs) != 0 {
		t.Errorf("honest table flagged: %v", vs)
	}
}

// TestLineDiffShapes: the diff stays readable for the edge shapes.
func TestLineDiffShapes(t *testing.T) {
	if d := LineDiff([]byte("a\nb"), []byte("a\nb"), 3); !strings.HasPrefix(d, "0 differing") {
		t.Errorf("identical inputs: %s", d)
	}
	d := LineDiff([]byte("a\nb\nc"), []byte("a\nX\nc\nd"), 1)
	if !strings.Contains(d, "line 2") || !strings.Contains(d, "more differing") {
		t.Errorf("truncated diff malformed: %s", d)
	}
	if d := LineDiff([]byte("x"), []byte("x "), 3); !strings.Contains(d, "line 1") {
		t.Errorf("trailing-space change invisible: %s", d)
	}
}

// TestShortMatrixFull runs the whole CI matrix in-process. It is the
// same sweep the CI scenario job performs via cmd/iotcheck, so it only
// runs when explicitly requested.
func TestShortMatrixFull(t *testing.T) {
	if os.Getenv("IOTCHECK_FULL") == "" {
		t.Skip("set IOTCHECK_FULL=1 to run the full short matrix in-process")
	}
	golden := &GoldenStore{Dir: filepath.Join("testdata", "golden")}
	sum, err := RunMatrix(context.Background(), Short(), Options{Golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sum.Violations {
		t.Errorf("violation: %s", v)
	}
	if sum.Configs < 49 {
		t.Errorf("Configs = %d, want >= 49", sum.Configs)
	}
}

// TestServiceCells: every service-mode cell passes its laws —
// conservation, deterministic shedding, drained-report equivalence with
// the batch pipeline, and a batch report no stack_id relabelling moves.
func TestServiceCells(t *testing.T) {
	cells := ServiceCases()
	if len(cells) < 3 {
		t.Fatalf("service matrix has %d cells, want >= 3", len(cells))
	}
	var sawShed, sawQuarantine bool
	for _, c := range cells {
		res, vs, err := RunServiceCase(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, v := range vs {
			t.Errorf("violation: %s", v)
		}
		if res.Accepted+res.Shed+res.Quarantined != res.Submitted {
			t.Errorf("%s: result row not conserved: %+v", c.Name(), res)
		}
		sawShed = sawShed || res.Shed > 0
		sawQuarantine = sawQuarantine || res.Quarantined > 0
	}
	if !sawShed {
		t.Error("no cell exercised shedding")
	}
	if !sawQuarantine {
		t.Error("no cell exercised quarantine")
	}
}

func TestServerFPCells(t *testing.T) {
	cells := ServerFPCases()
	if len(cells) < 2 {
		t.Fatalf("serverfp matrix has %d cells, want >= 2", len(cells))
	}
	var sawFaults bool
	for _, c := range cells {
		res, vs, err := RunServerFPCase(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, v := range vs {
			t.Errorf("violation: %s", v)
		}
		if res.Targets == 0 {
			t.Errorf("%s: no targets fingerprinted", c.Name())
		}
		if res.Runs < 2 {
			t.Errorf("%s: only %d runs, determinism check needs >= 2", c.Name(), res.Runs)
		}
		if res.Accuracy < serverFPAccuracyFloor {
			t.Errorf("%s: accuracy %.3f below floor", c.Name(), res.Accuracy)
		}
		sawFaults = sawFaults || c.FaultRate > 0
	}
	if !sawFaults {
		t.Error("no cell exercised the battery under fault injection")
	}
}
