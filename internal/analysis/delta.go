package analysis

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fingerprint"
)

// This file is the incremental half of the client analysis: the batch
// path shards a full dataset and merges once in symbol space, while a
// resident service parses record batches into Deltas as they arrive
// and folds each into a long-lived Client. A Delta decodes its batch
// straight into a per-batch columnar store over the service's
// IngestState, runs the same clientShard ingest, and finalizes into
// string form; MergeDelta then unions sorted StringSets — and a union
// of sorted sets is itself sorted, so a Client grown delta-by-delta is
// identical to one built by NewClientWorkers over the union of the
// records. That is the equivalence the service's drain invariant relies
// on.

// Delta is the parsed, aggregated form of one record batch, ready to
// merge into a Client. A Delta is single-use: merging moves its
// internal state into the Client.
type Delta struct {
	agg     aggregate
	records []dataset.Record
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
	var shard clientShard
	shard.init(st.newCtx(st.tab))
	shard.ingest(dataset.RecordsFromRows(st.tab, records), 0)
	if shard.err != nil {
		return nil, fmt.Errorf("analysis: record %d: %w", shard.errIdx, shard.err)
	}
	return &Delta{agg: shard.finalize(), records: records}, nil
}

// MergeDelta folds a delta into the client. The merge is commutative
// and associative (sorted-set unions and count additions), so any
// arrival order of the same deltas yields the same Client. The delta
// must not be reused afterwards. It runs the same merge as
// NewClientWorkers, so everything a Clone shares stays untouched: the
// first write to a shard or a FingerprintInfo after a Clone copies it,
// writes that change nothing are skipped, and orderedKeys is replaced
// only when the delta adds a fingerprint.
func (c *Client) MergeDelta(d *Delta) {
	c.merge(&d.agg)
	for _, r := range d.records {
		c.setDevice(r.DeviceID, r.Vendor, r.Type)
	}
}

// Clone returns a copy of the client that can be published as an
// immutable snapshot while the original keeps merging deltas. It copies
// the fixed shard-pointer arrays of the six indexes, not their entries,
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
