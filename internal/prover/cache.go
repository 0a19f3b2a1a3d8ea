package prover

import "sort"

// CacheEntry is one memoized query verdict, exported for durable
// persistence (internal/checkpoint). Key is the canonical query key
// ("V\x00hyp\x00goal" for validity, "U\x00formula" for unsatisfiability);
// Val is the memoized answer under the package soundness contract.
type CacheEntry struct {
	Key string `json:"k"`
	Val bool   `json:"v"`
}

// ExportCache snapshots the memo cache in canonical order: entries
// sorted by Key ascending. The ordering is part of the checkpoint
// compatibility contract (a golden test pins it), so resumed runs and
// fresh runs serialize the same cache state byte-identically regardless
// of shard layout or worker interleaving.
//
// Only fully decided verdicts live in the cache: queries abandoned on a
// wall-clock timeout or a run cancellation are never memoized (see
// Prover.search), so an export never persists an environmental degradation.
// Safe for concurrent use, but an export racing live queries sees an
// unspecified subset; export at a quiescent point (an iteration
// boundary) for deterministic content.
func (p *Prover) ExportCache() []CacheEntry {
	var out []CacheEntry
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			out = append(out, CacheEntry{Key: k, Val: v})
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ImportCache warm-starts the memo cache from a previous run's export.
// Imported verdicts behave exactly like locally computed ones: a query
// matching an imported key is a cache hit and never reaches the
// decision procedures. Call before sharing the prover between
// goroutines. Entries with duplicate keys keep the last value.
func (p *Prover) ImportCache(entries []CacheEntry) {
	for _, e := range entries {
		p.put(&p.shards, e.Key, e.Val)
	}
}

// CacheSize reports the number of memoized verdicts.
func (p *Prover) CacheSize() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
