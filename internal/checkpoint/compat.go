package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// CompatKey identifies what a journal is valid FOR. Only the SLAM loop
// journals (slam and predabsd workers, both through the runner package).
// Two runs may share a journal only when every field matches: same
// program text, same spec, same entry point, same tool and version, and
// the same values for the deterministic limits (they change which
// verdicts the run computes and caches).
//
// Deliberately excluded:
//
//   - The wall-clock limits -timeout/-query-timeout: their degradations
//     are environmental and never persisted, so differing wall-clock
//     budgets cannot make journaled state stale.
//   - The iteration budget -maxiters: it only decides when the loop
//     STOPS — the state committed at any iteration boundary is
//     identical for every value — and the prime resume use case is
//     continuing a budget-stopped run with a larger budget.
type CompatKey struct {
	Tool    string // "slam"
	Version string
	Program string // full source text
	Spec    string // predicate/spec file text ("" when none)
	Entry   string

	// MaxCubeLen changes which cube queries the search enumerates;
	// CubeBudget and BDDMaxNodes change which deterministic
	// budget-degraded verdicts get computed (and, for the cube budget,
	// cached). All three therefore pin the journal.
	MaxCubeLen  int
	CubeBudget  int64
	BDDMaxNodes int64

	// AbsEngine pins the abstraction engine (-abs-engine). The engines
	// emit byte-identical boolean programs on non-degraded runs, but they
	// populate the persisted prover cache with different key sets and
	// degrade differently under budgets, so a journal written by one must
	// not warm-start the other. Callers normalize "" to "cubes" so the
	// default spelled explicitly and implicitly hashes the same.
	AbsEngine string
}

// Hash returns the compatibility hash: a hex SHA-256 over an injective
// encoding of every field (length-prefixed, so no concatenation of
// fields can collide with another split). The encoding ends with an
// empty slot where a since-removed free-form field sat, so journals
// written before its removal keep their hash and still resume.
func (k CompatKey) Hash() string {
	h := sha256.New()
	put := func(s string) {
		fmt.Fprintf(h, "%d:", len(s))
		h.Write([]byte(s))
	}
	put(fmt.Sprintf("predabs-journal-v%d", formatVersion))
	put(k.Tool)
	put(k.Version)
	put(k.Program)
	put(k.Spec)
	put(k.Entry)
	put(fmt.Sprintf("%d/%d/%d", k.MaxCubeLen, k.CubeBudget, k.BDDMaxNodes))
	put(k.AbsEngine)
	put("")
	return hex.EncodeToString(h.Sum(nil))
}
