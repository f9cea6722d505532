// Command iotls runs the full IoT TLS & certificate study end to end and
// regenerates the paper's tables and figures.
//
// Usage:
//
//	iotls [flags] <subcommand>
//
// Subcommands:
//
//	report   run the study and print every table (default)
//	client   client-side tables only (Section 4 + Appendix B)
//	server   server-side tables only (Section 5 + Appendix C)
//	dot      emit the Figure 1/3/4 graphs in Graphviz DOT form
//	export   write the anonymized datasets as JSON Lines
//	cases    run the smart-TV and local-network case studies (Section 6)
//	summary  one-paragraph dataset summary
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/labdata"
	"repro/internal/localnet"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/smarttv"
)

func main() {
	common := cliflags.Common{Seed: 20231024, Scale: 1.0}
	common.Register(flag.CommandLine)
	var obsFlags cliflags.Obs
	obsFlags.Register(flag.CommandLine)
	var (
		minUser  = flag.Int("min-sni-users", 3, "drop SNIs observed from fewer users")
		realTLS  = flag.Bool("real-tls", false, "probe with genuine crypto/tls handshakes")
		serverFP = flag.Bool("serverfp", false, "actively fingerprint server TLS stacks and append the census tables")
		asof     = flag.String("asof", "", "replay the study at this virtual date (YYYY-MM-DD): firmware drift moves part of the population to TLS 1.3 and the adoption-timeline tables are appended ('' = paper era)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "report"
	}

	tracer, metrics, flush, err := obsFlags.Setup("iotls")
	if err != nil {
		fatal(err)
	}
	atExit = flush
	defer flush()

	ctx, stop := cliflags.SignalContext(context.Background())
	defer stop()

	cfg := core.Config{
		Seed: common.Seed, Scale: common.Scale, MinSNIUsers: *minUser,
		RealTLS: *realTLS, ServerFP: *serverFP, Workers: common.Workers,
		Tracer: tracer, Metrics: metrics,
	}
	cfg.Probe.AttemptTimeout = common.Timeout
	if *asof != "" {
		at, err := time.Parse("2006-01-02", *asof)
		if err != nil {
			fatal(fmt.Errorf("-asof: %w", err))
		}
		cfg.AsOf = at
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	switch cmd {
	case "export":
		study, err := core.Run(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		anon := export.NewAnonymizer(fmt.Sprintf("iotls-%d", cfg.Seed))
		n, err := export.WriteHellos(os.Stdout, study.Dataset, anon)
		if err != nil {
			fatal(err)
		}
		m, err := export.WriteCerts(os.Stdout, study.Server)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "exported %d hello rows and %d cert rows\n", n, m)
	case "report", "client", "server", "dot", "summary":
		study, err := core.Run(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		switch cmd {
		case "report":
			if *csv {
				for _, t := range append(study.ClientTables(), study.ServerTables()...) {
					fmt.Printf("# %s\n", t.Title)
					t.WriteCSV(os.Stdout)
					fmt.Println()
				}
			} else {
				study.WriteReport(os.Stdout)
			}
		case "client":
			for _, t := range study.ClientTables() {
				write(t, *csv)
			}
		case "server":
			for _, t := range study.ServerTables() {
				write(t, *csv)
			}
		case "dot":
			fmt.Println(study.Figure1Dot())
			fmt.Println(study.Figure3Dot())
			fmt.Println(study.Figure4Dot())
		case "summary":
			fmt.Printf("devices=%d users=%d models=%d records=%d fingerprints=%d snis=%d probed=%d\n",
				len(study.Dataset.Devices), study.Dataset.Users(), study.Dataset.Models(),
				study.Dataset.Records.Len(), study.Client.NumFingerprints(),
				len(study.Dataset.SNIs()), len(study.SNIs))
		}
	case "cases":
		runCases(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
}

func write(t report.Table, csv bool) {
	if csv {
		fmt.Printf("# %s\n", t.Title)
		t.WriteCSV(os.Stdout)
	} else {
		t.WriteText(os.Stdout)
	}
	fmt.Println()
}

func runCases(cfg core.Config) {
	// Section 6.1: smart TVs.
	ds := dataset.Generate(dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	world := simnet.Build(simnet.Config{Seed: cfg.Seed + 1, SNIs: ds.SNIsByMinUsers(cfg.MinSNIUsers), Workers: cfg.Workers})
	tv := smarttv.Run(world)
	fmt.Println("== Figure 7: Leaf certificates in Amazon and Roku groups ==")
	for _, r := range tv.Figure7() {
		fmt.Printf("%-8s %-28s certs=%-4d validity=%d-%d days  inCT=%d notInCT=%d\n",
			r.Group, r.Issuer, r.Count, r.MinDays, r.MaxDays, r.InCT, r.NotInCT)
	}
	fmt.Println("\n== Table 17: Invalid or misconfigured chains by group ==")
	for _, r := range tv.Table17() {
		fmt.Printf("%-8s %-25s %-30s fqdns=%d\n", r.Group, r.Status, r.SLD, r.FQDNs)
	}

	// Appendix C.4.2: lab dataset cross-check.
	fmt.Println("\n== Appendix C.4.2: Lab dataset cross-check ==")
	lab := labdata.Capture(world, ds, cfg.Seed+2)
	fmt.Printf("lab devices=%d vendors=%d records=%d\n", lab.Devices, lab.Vendors, len(lab.Records))

	// Section 6.2: local network PKI (real loopback TLS).
	fmt.Println("\n== Section 6.2: PKI on the local network ==")
	labnet, err := localnet.NewLab(time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC))
	if err != nil {
		fatal(err)
	}
	defer labnet.Close()
	obs, err := labnet.ObserveAll()
	if err != nil {
		fatal(err)
	}
	for _, o := range obs {
		fmt.Printf("%-18s port=%-6d chain=%d leafCN=%q cnIsIP=%v validity=%dd rootInStores=%v inCT=%v\n",
			o.Device, portOf(o.Device, labnet), o.ChainLen, o.LeafCN, o.CNIsIP,
			o.ValidityDays, o.RootInStores, o.InCT)
	}
}

func portOf(name string, lab *localnet.Lab) int {
	switch name {
	case "Amazon Echo":
		return lab.Echo.ListenPort
	case "Google Chromecast":
		return lab.Chromecast.ListenPort
	default:
		return lab.Home.ListenPort
	}
}

// atExit flushes observability output before fatal terminates the
// process (os.Exit skips deferred calls); main sets it once.
var atExit = func() {}

func fatal(err error) {
	atExit()
	fmt.Fprintln(os.Stderr, "iotls:", err)
	os.Exit(1)
}
