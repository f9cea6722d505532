package analysis

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/intern"
)

// This file is the incremental half of the client analysis: the batch
// path shards a full dataset and folds each shard's aggregate into the
// Client, while a resident service parses record batches into Deltas as
// they arrive and folds each into a long-lived Client. A Delta decodes
// its batch straight into a per-batch columnar store over the service's
// IngestState, runs the same clientShard ingest, and finalizes into
// string form; MergeDelta then unions sorted StringSets through the
// merge the batch path's shards take — and a union of sorted sets is
// itself sorted, so a Client grown delta-by-delta is identical to one
// built by NewClientWorkers over the union of the records. That is the
// equivalence the service's drain invariant relies on.

// Delta is the parsed, aggregated form of one record batch, ready to
// merge into a Client. It keeps the batch in columns over its ingest
// state's intern table, not as rows, so the rows are garbage once the
// batch is parsed. A Delta is single-use: merging moves its internal
// state into the Client.
type Delta struct {
	agg  aggregate
	recs dataset.Records
	// devices holds, for each device of the batch, its least identity
	// in the batch.
	devices []deviceEntry
}

// deviceEntry is one device's identity within a batch.
type deviceEntry struct {
	id string
	deviceIdentity
}

// NewDelta parses one record batch into a mergeable Delta through a
// fresh ingest state of its own; see IngestState.NewDelta.
func NewDelta(records []dataset.Record) (*Delta, error) {
	return NewIngestState().NewDelta(records)
}

// NewDelta parses one record batch into a mergeable Delta. It first reads
// every record's binary key, writing nothing: a record whose wire bytes
// do not parse poisons the whole batch, the error names the offending
// index, st is left as it was, and the caller quarantines the batch
// rather than merging a partial aggregate. Only then does the batch
// decode straight into a columnar store over st's intern table and
// ingest with its own memo and dense print index; only a fingerprint st
// has never seen builds its Key(). Safe for concurrent use.
func (st *IngestState) NewDelta(records []dataset.Record) (*Delta, error) {
	var buf [512]byte
	for i, r := range records {
		if _, err := fingerprint.AppendRecordKey(buf[:0], r.Raw); err != nil {
			return nil, fmt.Errorf("analysis: record %d: %w", i, err)
		}
	}
	recs := dataset.RecordsFromRows(st.tab, records)
	var shard clientShard
	shard.init(st)
	shard.ingest(recs, 0)
	if shard.err != nil {
		return nil, fmt.Errorf("analysis: record %d: %w", shard.errIdx, shard.err)
	}
	return &Delta{agg: shard.finalize(), recs: recs, devices: batchDevices(recs)}, nil
}

// batchDevices returns each device's least identity (see
// deviceIdentity) among recs, with every string the table's instance.
func batchDevices(recs dataset.Records) []deviceEntry {
	tab := recs.Table()
	slot := map[intern.Symbol]int{}
	var out []deviceEntry
	for i := 0; i < recs.Len(); i++ {
		d := deviceIdentity{firstNS: recs.TimeNS(i), vendor: tab.Str(recs.VendorSym(i)), typ: tab.Str(recs.TypeSym(i))}
		dev := recs.DeviceSym(i)
		if k, ok := slot[dev]; !ok {
			slot[dev] = len(out)
			out = append(out, deviceEntry{id: tab.Str(dev), deviceIdentity: d})
		} else if d.less(out[k].deviceIdentity) {
			out[k].deviceIdentity = d
		}
	}
	return out
}

// Records returns the batch's records in columns over the ingest
// state's intern table, in batch order. They are read-only.
func (d *Delta) Records() dataset.Records { return d.recs }

// MergeDelta folds a delta into the client. The merge is commutative
// and associative (sorted-set unions, count additions, and each device
// keeping its least identity), so any arrival order of the same deltas
// yields the same Client. The delta must not be merged again. It runs
// the same merge as NewClientWorkers, so everything a Clone shares stays
// untouched: the first write to a shard or a FingerprintInfo after a
// Clone copies it, writes that change nothing are skipped, and
// orderedKeys is replaced only when the delta adds a fingerprint.
func (c *Client) MergeDelta(d *Delta) {
	c.merge(&d.agg)
	for _, e := range d.devices {
		c.setDevice(e.id, e.deviceIdentity)
	}
}

// Clone returns a copy of the client that can be published as an
// immutable snapshot while the original keeps merging deltas. It copies
// the fixed shard-pointer arrays of the three indexes, not their entries,
// so its cost does not grow with the state: both Clients then share
// every shard, FingerprintInfo, StringSet and orderedKeys, and each gets
// a fresh generation, so whichever writes first copies the shard or
// info it writes. Merges never modify a shared value in place. The
// clone starts without a table index and builds its own on first read.
func (c *Client) Clone() *Client {
	out := &Client{sharedState: c.sharedState}
	out.gen = nextGen()
	c.gen = nextGen()
	return out
}
