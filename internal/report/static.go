package report

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/pki"
)

// Table10 renders the release dates of major library versions from the
// corpus metadata (the appendix's static reference table). It only
// reads entries.
func Table10(entries []fingerprint.LibraryEntry) Table {
	type agg struct {
		key     string // family + " " + series, the row order
		family  string
		series  string
		minYear int
		maxYear int
		count   int
	}
	type seriesKey struct{ family, series string }
	series := map[seriesKey]*agg{}
	var rows []*agg
	for _, e := range entries {
		k := seriesKey{e.Family, majorSeries(e.Version)}
		a := series[k]
		if a == nil {
			a = &agg{key: k.family + " " + k.series, family: k.family, series: k.series,
				minYear: e.ReleaseYear, maxYear: e.ReleaseYear}
			series[k] = a
			rows = append(rows, a)
		}
		a.count++
		if e.ReleaseYear < a.minYear {
			a.minYear = e.ReleaseYear
		}
		if e.ReleaseYear > a.maxYear {
			a.maxYear = e.ReleaseYear
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	t := Table{
		Title:   "Table 10: Release dates of major library versions",
		Headers: []string{"Library", "Series", "First release", "Last release", "#.Versions"},
	}
	for _, a := range rows {
		t.Rows = append(t.Rows, []string{
			a.family, a.series, itoa(a.minYear), itoa(a.maxYear), itoa(a.count),
		})
	}
	return t
}

// majorSeries maps "1.0.2u" to "1.0.2", "3.15.3-stable" to "3.15".
func majorSeries(version string) string {
	dots := 0
	for i := 0; i < len(version); i++ {
		if version[i] == '.' {
			dots++
			if dots == 2 {
				// Include trailing digits of the second component.
				j := i + 1
				for j < len(version) && version[j] >= '0' && version[j] <= '9' {
					j++
				}
				return version[:j]
			}
		}
	}
	return version
}

// Table13 renders the vendor index mapping of Figure 1.
func Table13() Table {
	vendors := dataset.Vendors()
	sort.Slice(vendors, func(i, j int) bool { return vendors[i].Index < vendors[j].Index })
	t := Table{
		Title:   "Table 13: Index and vendor mapping in Figure 1",
		Headers: []string{"Index", "Vendor"},
	}
	for _, v := range vendors {
		t.Rows = append(t.Rows, []string{itoa(v.Index), v.Name})
	}
	return t
}

// ExtensionFrequencies renders the Appendix B.3.3 comparison.
func ExtensionFrequencies(rows []analysis.ExtensionFrequency, topN int) Table {
	t := Table{
		Title:   "Appendix B.3.3: Extension usage, devices vs known libraries",
		Headers: []string{"Extension", "%.Device fingerprints", "%.Library fingerprints", "Delta"},
	}
	for i, r := range rows {
		if topN > 0 && i >= topN {
			break
		}
		t.Rows = append(t.Rows, []string{
			r.Extension.String(), pct(r.DeviceShare), pct(r.CorpusShare),
			fmt.Sprintf("%+.2f%%", 100*r.Delta()),
		})
	}
	return t
}

// ReportCards renders the per-vendor certificate hygiene grades.
func ReportCards(grades []pki.VendorGrade, now time.Time) Table {
	t := Table{
		Title:   fmt.Sprintf("Vendor certificate report cards (%s)", now.Format("2006-01-02")),
		Headers: []string{"Vendor", "Grade", "Servers", "Errors", "Warnings"},
	}
	sorted := append([]pki.VendorGrade(nil), grades...)
	sort.Slice(sorted, func(i, j int) bool {
		gi, gj := sorted[i].Grade(), sorted[j].Grade()
		if gi != gj {
			return gi < gj
		}
		return sorted[i].Vendor < sorted[j].Vendor
	})
	for _, g := range sorted {
		t.Rows = append(t.Rows, []string{
			g.Vendor, g.Grade(), itoa(g.Servers), itoa(g.Errors), itoa(g.Warnings),
		})
	}
	return t
}
