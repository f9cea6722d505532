// Certificate monitor: continuous monitoring of the servers an IoT fleet
// depends on — the auditing capability the paper says the ecosystem lacks
// (Section 5.4 / Discussion).
//
// The monitor probes every server, then alarms on: certificates expiring
// within the warning window (or already expired), vendor-signed leaves
// absent from CT (unauditable), broken chains, CN mismatches, and
// certificates shared across many servers (blast-radius risk).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
)

type alarm struct {
	severity string
	sni      string
	msg      string
}

func main() {
	scale := flag.Float64("scale", 0.3, "population scale")
	warnDays := flag.Int("warn-days", 90, "expiry warning window in days")
	flag.Parse()

	study, err := core.Run(context.Background(), core.Config{Seed: 11, Scale: *scale, MinSNIUsers: 2})
	if err != nil {
		log.Fatal(err)
	}
	srv := study.Server

	now := study.World.ProbeTime
	var alarms []alarm
	add := func(severity, sni, format string, args ...any) {
		alarms = append(alarms, alarm{severity, sni, fmt.Sprintf(format, args...)})
	}

	// Per-server checks.
	for _, r := range srv.Records {
		daysLeft := int(r.Leaf.NotAfter.Sub(now).Hours() / 24)
		switch {
		case daysLeft < 0:
			add("CRIT", r.SNI, "certificate expired %d days ago (issuer %s), still visited by %d devices",
				-daysLeft, r.IssuerOrg, len(r.Devices))
		case daysLeft < *warnDays:
			add("WARN", r.SNI, "certificate expires in %d days (issuer %s)", daysLeft, r.IssuerOrg)
		}
		switch r.Status {
		case pki.StatusCNMismatch:
			add("CRIT", r.SNI, "certificate names neither CN nor SAN of the host")
		case pki.StatusSelfSigned:
			add("WARN", r.SNI, "self-signed certificate (issuer %s)", r.IssuerOrg)
		case pki.StatusIncompleteChain:
			add("WARN", r.SNI, "incomplete chain: server omits intermediates")
		}
		if !r.IssuerPublic && !r.InCT {
			if r.ValidityDays > 3650 {
				add("WARN", r.SNI, "vendor-signed, %d-year validity, NOT in CT: unauditable and likely never rotated",
					r.ValidityDays/365)
			}
		}
	}

	// Blast-radius: one certificate across many servers.
	byLeaf := map[string][]string{}
	for _, r := range srv.Records {
		key := fmt.Sprintf("%x", r.LeafFP[:8])
		byLeaf[key] = append(byLeaf[key], r.SNI)
	}
	for key, hosts := range byLeaf {
		if len(hosts) >= 8 {
			sort.Strings(hosts)
			add("INFO", hosts[0], "certificate %s shared across %d servers — single compromise affects all",
				key, len(hosts))
		}
	}

	// Report, most severe first.
	rank := map[string]int{"CRIT": 0, "WARN": 1, "INFO": 2}
	sort.Slice(alarms, func(i, j int) bool {
		if rank[alarms[i].severity] != rank[alarms[j].severity] {
			return rank[alarms[i].severity] < rank[alarms[j].severity]
		}
		return alarms[i].sni < alarms[j].sni
	})
	fmt.Printf("=== IoT certificate monitor — %s, %d servers, %d alarms ===\n\n",
		now.Format(time.DateOnly), len(srv.Records), len(alarms))
	counts := map[string]int{}
	for _, a := range alarms {
		counts[a.severity]++
	}
	fmt.Printf("CRIT=%d WARN=%d INFO=%d\n\n", counts["CRIT"], counts["WARN"], counts["INFO"])
	limit := 40
	for i, a := range alarms {
		if i >= limit {
			fmt.Printf("... %d more\n", len(alarms)-limit)
			break
		}
		fmt.Printf("[%s] %-40s %s\n", a.severity, a.sni, a.msg)
	}
	if counts["CRIT"] > 0 {
		log.Printf("%d critical findings", counts["CRIT"])
	}
}
