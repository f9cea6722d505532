// Fleet audit: a device vendor auditing its own fleet's TLS hygiene.
//
// The example takes the perspective of one vendor (default: Samsung),
// parses every ClientHello its devices emitted, and reports what a
// security team would act on: vulnerable ciphersuites and which component
// families cause them, devices still proposing SSL 3.0, most-preferred
// algorithms, vulnerable suites ranked first, and fingerprints unique to
// single devices (the update-drift signal).
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/tlswire"
)

func main() {
	vendor := flag.String("vendor", "Samsung", "vendor to audit")
	scale := flag.Float64("scale", 0.5, "population scale")
	flag.Parse()

	ds := dataset.Generate(dataset.Config{Seed: 7, Scale: *scale})
	client, err := analysis.NewClientWorkers(ds, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== TLS hygiene audit: %s ===\n\n", *vendor)

	// Fleet inventory.
	devices := 0
	for _, dev := range client.Devices() {
		if client.DeviceVendor(dev) == *vendor {
			devices++
		}
	}
	fmt.Printf("fleet size: %d devices\n", devices)

	// Fingerprint inventory with security levels.
	type fpView struct {
		info  *analysis.FingerprintInfo
		level ciphersuite.SecurityLevel
	}
	var fleet []fpView
	for _, key := range client.FingerprintKeys() {
		if info := client.Fingerprint(key); info.Vendors.Has(*vendor) {
			fleet = append(fleet, fpView{info, info.Print.Level()})
		}
	}
	byLevel := map[ciphersuite.SecurityLevel]int{}
	singleDevice := 0
	for _, f := range fleet {
		byLevel[f.level]++
		n := 0
		for _, dev := range f.info.Devices {
			if client.DeviceVendor(dev) == *vendor {
				n++
			}
		}
		if n == 1 {
			singleDevice++
		}
	}
	fmt.Printf("fingerprints in fleet: %d (optimal %d / suboptimal %d / vulnerable %d)\n",
		len(fleet), byLevel[ciphersuite.Optimal], byLevel[ciphersuite.Suboptimal], byLevel[ciphersuite.Vulnerable])
	fmt.Printf("fingerprints on a single device (update drift): %d\n\n", singleDevice)

	// What makes them vulnerable?
	classCounts := map[ciphersuite.VulnClass]int{}
	for _, f := range fleet {
		for _, cl := range f.info.Print.VulnClasses() {
			classCounts[cl]++
		}
	}
	fmt.Println("vulnerable components across fleet fingerprints:")
	classes := make([]ciphersuite.VulnClass, 0, len(classCounts))
	for cl := range classCounts {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classCounts[classes[i]] > classCounts[classes[j]] })
	for _, cl := range classes {
		fmt.Printf("  %-12s %d fingerprints\n", cl, classCounts[cl])
	}

	// SSL 3.0 stragglers.
	_, ssl3Vendors := client.SSL3Census()
	if n := ssl3Vendors[*vendor]; n > 0 {
		fmt.Printf("\nWARNING: %d device(s) still propose SSL 3.0\n", n)
	}

	// Lowest vulnerable index (is a vulnerable suite the most preferred?).
	for _, row := range client.Figure11() {
		if row.Vendor != *vendor {
			continue
		}
		fmt.Printf("\nproposal tuples: %d; with a vulnerable suite: %d; vulnerable suite ranked FIRST: %d\n",
			row.Tuples, len(row.Indices), row.FirstPreferred)
	}

	// Most-preferred components.
	for _, row := range client.Figure12() {
		if row.Vendor != *vendor {
			continue
		}
		fmt.Printf("most-preferred components: kex=%s cipher=%s mac=%s\n",
			top(row.Kex), top(row.Cipher), top(row.MAC))
	}

	// Exact library builds still in the fleet (patch targets).
	fmt.Println("\nfingerprint versions proposing TLS < 1.2:")
	for _, f := range fleet {
		if f.info.Print.Version < tlswire.VersionTLS12 {
			fmt.Printf("  %s on %d device(s)\n", f.info.Print.Version, len(f.info.Devices))
		}
	}

	// GREASE adoption signals modern stacks.
	grease := 0
	for _, f := range fleet {
		if f.info.Print.HasGREASESuites() {
			grease++
		}
	}
	fmt.Printf("\nGREASE-emitting fingerprints (modern stacks): %d/%d\n", grease, len(fleet))
	_ = fingerprint.Fingerprint{} // the API consumed above
}

func top(m map[string]int) string {
	best, bestN := "-", 0
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k] > bestN {
			best, bestN = k, m[k]
		}
	}
	return best
}
