// ACME what-if: the paper's recommendation (Section 7), quantified.
//
// The example measures the vendor-signed certificate population of the
// simulated world (the 19.8–100 year "set it and forget it" certificates
// of Section 5.4), then replays the same servers under ACME-style
// automated management with 90-day certificates — comparing renewals,
// expired-service days, CT auditability, and mean key age. The ACME
// directory actually runs the RFC 8555 order→challenge→finalize flow and
// logs every issued certificate in the CT log.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/acme"
	"repro/internal/core"
	"repro/internal/ctlog"
	"repro/internal/pki"
)

func main() {
	scale := flag.Float64("scale", 0.3, "population scale")
	horizon := flag.Int("horizon", 10, "simulation horizon in years")
	flag.Parse()

	// Measure today's vendor-signed population.
	study, err := core.Run(context.Background(), core.Config{Seed: 31, Scale: *scale, MinSNIUsers: 2})
	if err != nil {
		log.Fatal(err)
	}

	var vendorValidities []int
	for _, r := range study.Server.Records {
		if !r.IssuerPublic {
			vendorValidities = append(vendorValidities, r.ValidityDays)
		}
	}
	vendorValidities = acme.ValiditiesFromWorld(vendorValidities)
	if len(vendorValidities) == 0 {
		log.Fatal("no vendor-signed long-lived certificates in world")
	}
	fmt.Printf("vendor-signed long-lived certificates: %d (validity %d–%d days)\n\n",
		len(vendorValidities), vendorValidities[0], vendorValidities[len(vendorValidities)-1])

	// Stand up the ACME directory over a public trust CA + CT log.
	epoch := study.World.ProbeTime
	ca := pki.NewCA("Let's Encrypt", pki.PublicTrustCA, epoch.AddDate(-5, 0, 0), 20, 1)
	ctLog := ctlog.New("acme-ct", func() time.Time { return epoch })
	dir := acme.NewDirectory(ca, ctLog, 90, func() time.Time { return epoch })

	res := acme.Simulate(dir, vendorValidities, *horizon)

	fmt.Printf("=== %d-year what-if over %d vendor-managed servers ===\n\n", res.HorizonYears, res.Servers)
	fmt.Printf("%-32s %15s %15s\n", "", "status quo", "ACME-managed")
	fmt.Printf("%-32s %15d %15d\n", "certificate issuances", res.VendorRenewals+res.Servers, res.ACMERenewals)
	fmt.Printf("%-32s %15d %15d\n", "server-days serving expired", res.VendorExpiredDays, res.ACMEExpiredDays)
	fmt.Printf("%-32s %14.0f%% %14.0f%%\n", "CT coverage (auditable)", 100*res.VendorCTCoverage, 100*res.ACMECTCoverage)
	fmt.Printf("%-32s %15d %15d\n", "mean key age (days)", res.VendorMeanKeyAgeDays, res.ACMEMeanKeyAgeDays)
	fmt.Printf("\nACME directory issued %d live sample certificates through the full\norder→challenge→finalize flow; CT log size is now %d.\n",
		dir.Issued(), ctLog.Size())
}
