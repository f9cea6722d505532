// Command iotprobe is the standalone multi-vantage certificate prober of
// Section 5.1: given a set of SNIs it establishes TLS connections from
// three vantage points through the resilient probe engine (per-attempt
// timeouts, exponential backoff with full jitter, per-host retry budget
// and circuit breaker), captures the served chains, validates them
// against the major trust stores, and reports issuer, validity, chain
// status, and CT presence for each server.
//
// Without an SNI list it probes every server of the simulated world built
// from the crowdsourced dataset. Positional SNIs are added to the hosted
// world, so ad-hoc domains resolve instead of failing with unknown host.
//
// With -fingerprint it switches to active server-stack fingerprinting:
// instead of one canonical handshake per (SNI, vantage), it sends the
// serverfp battery of crafted ClientHellos to each host from a single
// vantage and classifies the response vectors into server-stack labels.
//
// Usage:
//
//	iotprobe [-seed N] [-scale F] [-real-tls] [-vantage V]
//	         [-timeout D] [-retries N] [-workers N] [-fault-rate F]
//	         [-fingerprint] [-trace] [-metrics FILE] [-pprof ADDR] [sni ...]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cliflags"
	"repro/internal/dataset"
	"repro/internal/pki"
	"repro/internal/probe"
	"repro/internal/serverfp"
	"repro/internal/simnet"
)

func main() {
	common := cliflags.Common{Seed: 20231024, Scale: 0.3, Timeout: 5 * time.Second}
	common.Register(flag.CommandLine)
	var obsFlags cliflags.Obs
	obsFlags.Register(flag.CommandLine)
	var (
		realTLS   = flag.Bool("real-tls", true, "use genuine crypto/tls handshakes")
		vantage   = flag.String("vantage", "all", "vantage: new-york, frankfurt, singapore, or all")
		retries   = flag.Int("retries", 3, "max retries per (SNI, vantage) on transient failures")
		faultRate = flag.Float64("fault-rate", 0, "injected transient-failure probability per attempt, in [0,1]")
		fpMode    = flag.Bool("fingerprint", false, "actively fingerprint server TLS stacks instead of collecting chains")
	)
	flag.Parse()
	seed, scale, workers, timeout := &common.Seed, &common.Scale, &common.Workers, &common.Timeout

	tracer, metrics, flush, err := obsFlags.Setup("iotprobe")
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotprobe:", err)
		os.Exit(2)
	}
	defer flush()

	vantages, err := resolveVantages(*vantage)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *faultRate < 0 || *faultRate > 1 {
		fmt.Fprintf(os.Stderr, "iotprobe: -fault-rate %v outside [0,1]\n", *faultRate)
		os.Exit(2)
	}

	buildSpan := tracer.Root().Child("world-build")
	ds := dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale, Metrics: metrics})
	snis := flag.Args()
	worldSNIs := ds.SNIsByMinUsers(2)
	if len(snis) == 0 {
		snis = worldSNIs
	} else {
		// Host the user's SNIs too: a domain outside the default set
		// should be probed, not rejected as unknown.
		hosted := map[string]bool{}
		for _, s := range worldSNIs {
			hosted[s] = true
		}
		for _, s := range snis {
			if !hosted[s] {
				worldSNIs = append(worldSNIs, s)
				hosted[s] = true
			}
		}
	}
	world := simnet.Build(simnet.Config{Seed: *seed + 1, SNIs: worldSNIs, Workers: *workers})
	if *faultRate > 0 {
		world.SetFaults(simnet.Faults{Seed: *seed, TransientRate: *faultRate})
	}
	world.Validator.Instrument(metrics)
	buildSpan.SetCount("servers", int64(len(world.Servers)))
	buildSpan.End()

	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1 // flag 0 means "no retries", not "engine default"
	}
	opts := probe.Options{
		Workers:        *workers,
		AttemptTimeout: *timeout,
		MaxRetries:     maxRetries,
		Seed:           *seed,
		Metrics:        metrics,
	}

	ctx, stop := cliflags.SignalContext(context.Background())
	defer stop()
	sort.Strings(snis)

	if *fpMode {
		fpSpan := tracer.Root().Child("serverfp")
		census, err := serverfp.Fingerprint(ctx, world, snis, vantages[0], opts)
		fpSpan.End()
		if err != nil {
			fmt.Fprintln(os.Stderr, "iotprobe:", err)
			flush()
			os.Exit(1)
		}
		for _, tgt := range census.Targets {
			truth := tgt.TrueLabel
			if truth == "" {
				truth = "?"
			}
			fmt.Printf("%-40s stack=%-16s confidence=%.2f truth=%-16s observed=%d/%d\n",
				tgt.SNI, tgt.Label, tgt.Confidence, truth, tgt.Observed, census.BatterySize)
		}
		for _, lc := range census.LabelCounts() {
			fmt.Printf("# %-18s servers=%-5d mean-confidence=%.2f mismatches=%d\n",
				lc.Label, lc.Servers, lc.MeanConf, lc.Mismatches)
		}
		fmt.Fprintf(os.Stderr,
			"fingerprinted %d host(s) from %s: battery=%d accuracy=%.3f attempts=%d retries=%d\n",
			len(census.Targets), census.Vantage, census.BatterySize, census.Accuracy(),
			census.Stats.Attempts, census.Stats.Retries)
		if census.Stats.Aborted > 0 {
			flush()
			os.Exit(130)
		}
		return
	}

	eng := probe.New(probe.WorldProber{World: world, RealTLS: *realTLS}, opts)
	probeSpan := tracer.Root().Child("probe")
	results, stats := eng.Run(ctx, snis, vantages)
	probeSpan.SetCount("jobs", int64(stats.Jobs))
	probeSpan.SetCount("attempts", int64(stats.Attempts))
	probeSpan.End()

	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("%-40s %-10s ERROR [%s after %d attempt(s)] %v\n",
				r.SNI, r.Vantage, r.Class, r.Attempts, r.Err)
			continue
		}
		res := world.Validator.Validate(r.Response.Chain, r.SNI, world.ProbeTime)
		leaf := r.Response.Chain.Leaf()
		days := int(leaf.NotAfter.Sub(leaf.NotBefore).Hours() / 24)
		fmt.Printf("%-40s %-10s issuer=%-28s status=%-22s chain=%d validity=%dd ct=%v attempts=%d\n",
			r.SNI, r.Vantage, pki.IssuerOrg(leaf), res.Status, r.Response.Chain.Len(), days,
			world.Log.Contains(leaf), r.Attempts)
	}

	fmt.Fprintf(os.Stderr,
		"probed %d jobs across %d vantage(s): %d ok (%d recovered by retry), %d transient, %d terminal, %d aborted\n",
		stats.Jobs, len(vantages), stats.Successes, stats.RecoveredAfterRetry,
		stats.TransientFailures, stats.TerminalFailures, stats.Aborted)
	fmt.Fprintf(os.Stderr,
		"attempts=%d retries=%d breaker-opens=%d breaker-fast-fails=%d budget-exhausted=%d\n",
		stats.Attempts, stats.Retries, stats.BreakerOpens, stats.BreakerFastFails, stats.BudgetExhausted)
	if stats.Aborted > 0 {
		flush() // os.Exit skips the deferred flush
		os.Exit(130)
	}
}

// resolveVantages validates the -vantage flag against the known set.
func resolveVantages(name string) ([]simnet.Vantage, error) {
	if name == "all" {
		return simnet.Vantages(), nil
	}
	for _, v := range simnet.Vantages() {
		if string(v) == name {
			return []simnet.Vantage{v}, nil
		}
	}
	return nil, fmt.Errorf("iotprobe: unknown vantage %q (want new-york, frankfurt, singapore, or all)", name)
}
