package probe

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/tlswire"
)

// scriptedHelloProber lifts the scripted prober to HelloProber: the
// failure script drives the retry machinery, and a successful attempt
// reflects the crafted hello's first suite so tests can see which
// battery probe produced a result.
type scriptedHelloProber struct {
	*scriptedProber
}

func (p scriptedHelloProber) ProbeHello(ctx context.Context, sni string, v simnet.Vantage, hello *tlswire.ClientHello) (Response, error) {
	resp, err := p.Probe(ctx, sni, v)
	if err != nil {
		return resp, err
	}
	resp.SelectedCipher = hello.CipherSuites[0]
	resp.NegotiatedVersion = hello.LegacyVersion
	return resp, nil
}

func testBattery() []BatteryProbe {
	mk := func(name string, first uint16, ver tlswire.Version) BatteryProbe {
		return BatteryProbe{Name: name, Hello: func(sni string) *tlswire.ClientHello {
			ch := &tlswire.ClientHello{
				LegacyVersion:      ver,
				CipherSuites:       []uint16{first, 0x002F},
				CompressionMethods: []byte{0},
			}
			ch.SetSNI(sni)
			return ch
		}}
	}
	return []BatteryProbe{
		mk("baseline", 0xC02F, tlswire.VersionTLS12),
		mk("downlevel", 0x0035, tlswire.VersionTLS10),
	}
}

func TestRunBatteryOrderingAndEvidence(t *testing.T) {
	p := scriptedHelloProber{newScriptedProber()}
	eng, _ := testEngine(p, Options{Workers: 4, Seed: 3})
	snis := []string{"b.example", "a.example", "b.example"} // unsorted + dup
	battery := testBattery()

	results, stats, err := eng.RunBattery(context.Background(), snis, simnet.VantageNewYork, battery)
	if err != nil {
		t.Fatalf("RunBattery: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4 (2 snis x 2 probes)", len(results))
	}
	wantSNIs := []string{"a.example", "a.example", "b.example", "b.example"}
	wantProbes := []string{"baseline", "downlevel", "baseline", "downlevel"}
	wantCipher := []uint16{0xC02F, 0x0035, 0xC02F, 0x0035}
	for i, r := range results {
		if r.SNI != wantSNIs[i] || r.Probe != wantProbes[i] {
			t.Fatalf("results[%d] = (%s,%s), want (%s,%s)", i, r.SNI, r.Probe, wantSNIs[i], wantProbes[i])
		}
		if r.Err != nil || r.Response.SelectedCipher != wantCipher[i] {
			t.Fatalf("results[%d]: cipher %04x err %v, want %04x", i, r.Response.SelectedCipher, r.Err, wantCipher[i])
		}
	}
	if stats.Jobs != 4 || stats.Successes != 4 {
		t.Fatalf("stats = %+v, want 4 jobs, 4 successes", stats)
	}
}

func TestRunBatteryRetriesShareHostBudget(t *testing.T) {
	p := scriptedHelloProber{newScriptedProber()}
	// Every attempt against the host fails transiently; the per-host
	// retry budget must cap retries across both battery probes combined.
	errs := make([]error, 40)
	for i := range errs {
		errs[i] = simnet.ErrConnReset
	}
	p.set("flappy.example", simnet.VantageNewYork, errs...)
	eng, _ := testEngine(p, Options{Workers: 1, Seed: 9, MaxRetries: 10, RetryBudget: 3, BreakerThreshold: -1})
	// BreakerThreshold <= 0 defaults to 5; use a high threshold instead
	// so the budget, not the breaker, is what stops the retries.
	eng.opts.BreakerThreshold = 1000

	results, stats, err := eng.RunBattery(context.Background(), []string{"flappy.example"}, simnet.VantageNewYork, testBattery())
	if err != nil {
		t.Fatalf("RunBattery: %v", err)
	}
	for i, r := range results {
		if r.Class != ClassTransient {
			t.Fatalf("results[%d].Class = %v, want transient", i, r.Class)
		}
	}
	if stats.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (shared host budget)", stats.Retries)
	}
	if stats.BudgetExhausted == 0 {
		t.Fatalf("expected budget exhaustion, stats = %+v", stats)
	}
}

func TestRunBatteryDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []Result {
		p := scriptedHelloProber{newScriptedProber()}
		p.set("c.example", simnet.VantageNewYork, simnet.ErrConnReset, nil, simnet.ErrStalled, nil)
		eng, _ := testEngine(p, Options{Workers: workers, Seed: 11})
		results, _, err := eng.RunBattery(context.Background(),
			[]string{"a.example", "b.example", "c.example"}, simnet.VantageNewYork, testBattery())
		if err != nil {
			t.Fatalf("RunBattery(workers=%d): %v", workers, err)
		}
		return results
	}
	base := run(1)
	for _, workers := range []int{4, 16} {
		got := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i].SNI != base[i].SNI || got[i].Probe != base[i].Probe ||
				got[i].Class != base[i].Class ||
				got[i].Response.SelectedCipher != base[i].Response.SelectedCipher {
				t.Fatalf("workers=%d: results[%d] diverged: %+v vs %+v", workers, i, got[i], base[i])
			}
		}
	}
}

func TestRunBatteryRequiresHelloProber(t *testing.T) {
	eng, _ := testEngine(newScriptedProber(), Options{Workers: 1})
	if _, _, err := eng.RunBattery(context.Background(), []string{"a.example"}, simnet.VantageNewYork, testBattery()); err == nil {
		t.Fatal("plain Prober must be rejected")
	}
}

// overlapProber records, per host, which probes were sent in which
// order and whether two probes of one host were ever in flight at once.
// Each ProbeHello sleeps briefly so concurrent dispatch would overlap.
type overlapProber struct {
	mu       sync.Mutex
	inFlight map[string]int
	overlap  map[string]bool
	order    map[string][]uint16
}

func (p *overlapProber) Probe(ctx context.Context, sni string, v simnet.Vantage) (Response, error) {
	return Response{}, nil
}

func (p *overlapProber) ProbeHello(ctx context.Context, sni string, v simnet.Vantage, hello *tlswire.ClientHello) (Response, error) {
	p.mu.Lock()
	p.inFlight[sni]++
	if p.inFlight[sni] > 1 {
		p.overlap[sni] = true
	}
	p.order[sni] = append(p.order[sni], hello.CipherSuites[0])
	p.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	p.mu.Lock()
	p.inFlight[sni]--
	p.mu.Unlock()
	return Response{SelectedCipher: hello.CipherSuites[0]}, nil
}

// TestRunBatteryOneHostAtATime: with several workers, no two probes of
// one host are in flight together and every host sees its battery in
// battery order. Per-host state (retry budget, breaker, simnet's fault
// attempt counter) is keyed without the probe name, so overlapping
// probes of one host made results depend on scheduling.
func TestRunBatteryOneHostAtATime(t *testing.T) {
	p := &overlapProber{inFlight: map[string]int{}, overlap: map[string]bool{}, order: map[string][]uint16{}}
	eng, _ := testEngine(p, Options{Workers: 4, Seed: 5})
	var battery []BatteryProbe
	var want []uint16
	for i := 0; i < 8; i++ {
		suite := uint16(0xC000 + i)
		want = append(want, suite)
		battery = append(battery, BatteryProbe{Name: fmt.Sprintf("p%d", i), Hello: func(sni string) *tlswire.ClientHello {
			ch := &tlswire.ClientHello{LegacyVersion: tlswire.VersionTLS12, CipherSuites: []uint16{suite}, CompressionMethods: []byte{0}}
			ch.SetSNI(sni)
			return ch
		}})
	}
	snis := []string{"a.example", "b.example", "c.example", "d.example", "e.example", "f.example"}
	results, _, err := eng.RunBattery(context.Background(), snis, simnet.VantageNewYork, battery)
	if err != nil {
		t.Fatalf("RunBattery: %v", err)
	}
	if len(results) != len(snis)*len(battery) {
		t.Fatalf("results = %d, want %d", len(results), len(snis)*len(battery))
	}
	for _, sni := range snis {
		if p.overlap[sni] {
			t.Errorf("%s: two battery probes were in flight at once", sni)
		}
		if !reflect.DeepEqual(p.order[sni], want) {
			t.Errorf("%s: probes sent in order %04x, want battery order %04x", sni, p.order[sni], want)
		}
	}
}
