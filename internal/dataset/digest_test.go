package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/intern"
)

// datasetDigest hashes everything Generate decides: every record's
// strings, time and wire bytes in record order; the intern table's
// strings in symbol order (so a change in which string is interned
// first shows even when every record reads the same); and every device
// with its stacks' IDs and prints.
func datasetDigest(ds *Dataset) string {
	h := sha256.New()
	str := func(s string) {
		writeLen(h, len(s))
		h.Write([]byte(s))
	}
	recs := ds.Records
	writeLen(h, recs.Len())
	for i := 0; i < recs.Len(); i++ {
		r := recs.At(i)
		for _, s := range []string{r.DeviceID, r.Vendor, r.Model, r.Type, r.User, r.SNI, r.StackID} {
			str(s)
		}
		writeLen(h, int(recs.TimeNS(i)))
		writeLen(h, len(r.Raw))
		h.Write(r.Raw)
	}
	tab := recs.Table()
	writeLen(h, tab.Len())
	for sym := 0; sym < tab.Len(); sym++ {
		str(tab.Str(intern.Symbol(sym)))
	}
	writeLen(h, len(ds.Devices))
	for _, d := range ds.Devices {
		for _, s := range []string{d.ID, d.Vendor, d.Model, d.Type, d.User} {
			str(s)
		}
		writeLen(h, len(d.Stacks))
		for _, s := range d.Stacks {
			str(s.ID)
			writePrint(h, s.Print)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLen(h hash.Hash, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
}

func writePrint(h hash.Hash, p fingerprint.Fingerprint) {
	writeLen(h, int(p.Version))
	writeLen(h, len(p.CipherSuites))
	for _, id := range p.CipherSuites {
		writeLen(h, int(id))
	}
	writeLen(h, len(p.Extensions))
	for _, id := range p.Extensions {
		writeLen(h, int(id))
	}
}

// TestGenerateDigest pins the generated dataset, byte for byte, at four
// configurations. The pins were taken from the single-loop generator
// that predates the plan/stamp pipeline, so they hold the pipeline to
// that generator's output exactly: the draws, the wire bytes, the
// time sort's order of equal times, and the intern table's numbering.
func TestGenerateDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"seed=20231024/scale=1", Config{Seed: 20231024, Scale: 1}, "f1d3c9a7c9e93e38bdeea6037b9018ec8fdec729df6bede038d6089213e5c8d0"},
		{"seed=20231024/scale=10", Config{Seed: 20231024, Scale: 10}, "28343b985c6fe7726977f5522a0eeebd1f33c63391cab458b3a008437eee2e31"},
		{"seed=1/asof=2025-08-01", Config{Seed: 1, Scale: 1, AsOf: date(2025, 8, 1)}, "341cecdc13395da4c0564e8d8890490a6a3b219090f47c89fefb5edb27190abd"},
		{"seed=4242/scale=3", Config{Seed: 4242, Scale: 3}, "42b3340a091f454232b8691f9b14271655a91b2185505b3fa2791e9852d8afb5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Scale >= 10 && testing.Short() {
				t.Skip("scale 10 skipped under -short")
			}
			if got := datasetDigest(Generate(tc.cfg)); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
