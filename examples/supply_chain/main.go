// Supply chain: uncover shared TLS stacks across vendors — the Section
// 4.4 analysis as a standalone tool. Server-tied fingerprints reveal
// which vendors embed the same SDKs (a software-bill-of-materials signal
// from network traffic alone), and vendor-pair Jaccard similarity reveals
// shared firmware suppliers and white-label relationships.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/libcorpus"
)

func main() {
	scale := flag.Float64("scale", 0.6, "population scale")
	threshold := flag.Float64("jaccard", 0.2, "vendor-pair similarity threshold")
	flag.Parse()

	ds := dataset.Generate(dataset.Config{Seed: 3, Scale: *scale})
	client, err := analysis.NewClientWorkers(ds, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Supply-chain signals from TLS fingerprints ===")

	// 1. Company/white-label relationships: near-identical fingerprint
	//    sets between brands.
	fmt.Printf("\n-- vendor pairs with fingerprint-set Jaccard >= %.2f --\n", *threshold)
	for _, p := range client.Table4(*threshold) {
		relation := "shared supplier"
		switch {
		case p.Similarity >= 0.95:
			relation = "same firmware (white-label / same company)"
		case p.Similarity >= 0.5:
			relation = "co-developed platform"
		}
		fmt.Printf("%.2f  {%s, %s}  -> %s\n", p.Similarity, p.A, p.B, relation)
	}

	// 2. SDK detection: servers tied to one fingerprint across vendors.
	fmt.Println("\n-- shared SDK stacks (server-tied fingerprints) --")
	rows := client.Table5(2)
	for _, r := range rows {
		vuln := ""
		if len(r.VulnLabels) > 0 {
			vuln = "  [VULNERABLE: " + strings.Join(r.VulnLabels, ",") + "]"
		}
		fmt.Printf("%-22s fqdns=%-3d devices=%-4d vendors={%s}%s\n",
			r.SLD, r.FQDNs, r.Devices, strings.Join(r.Vendors, ","), vuln)
	}

	// 3. Downstream exposure: devices affected by each vulnerable shared
	//    stack (the "118 Roku devices affected by RC/3DES" finding).
	fmt.Println("\n-- downstream exposure of vulnerable shared stacks --")
	type exposure struct {
		sld     string
		devices int
		vendors []string
		labels  []string
	}
	var exposures []exposure
	for _, r := range rows {
		if len(r.VulnLabels) == 0 {
			continue
		}
		exposures = append(exposures, exposure{r.SLD, r.Devices, r.Vendors, r.VulnLabels})
	}
	sort.Slice(exposures, func(i, j int) bool { return exposures[i].devices > exposures[j].devices })
	total := 0
	for _, e := range exposures {
		total += e.devices
		fmt.Printf("%-22s %4d devices of %d vendor(s) exposed to %s\n",
			e.sld, e.devices, len(e.vendors), strings.Join(e.labels, ","))
	}
	fmt.Printf("total device-exposures through shared vulnerable stacks: %d\n", total)

	// 4. How much of the ecosystem is shared vs custom?
	matcher := libcorpus.NewMatcher()
	frac := client.ServerTiedSNIFraction(matcher)
	deg := client.Table2()
	fmt.Printf("\nserver-tied SNI fraction (excluding known-library stacks): %.2f%%\n", 100*frac)
	fmt.Printf("fingerprints shared by 2+ vendors: %.2f%%\n", 100*(1-deg.Deg1))
	_ = analysis.Table5Row{}
}
