// Package commit is a smuvet commitpair fixture: every wal.Log.AppendAsync
// commit token must reach Commit, the caller, or caller-visible memory on
// every path. It is compiled only by the analyzer tests.
package commit

import "smartusage/internal/wal"

// BlankToken discards the token at the call: the record can never be made
// durable.
func BlankToken(l *wal.Log, p []byte) error {
	_, _, err := l.AppendAsync(1, p) // want `commit token from l\.AppendAsync discarded`
	return err
}

// BareAppend drops the whole result tuple.
func BareAppend(l *wal.Log, p []byte) {
	l.AppendAsync(1, p) // want `result of l\.AppendAsync discarded`
}

// EarlyReturn commits on the main path but leaks the token on the !flush
// return. The err-guarded return is fine: a failed append has no record to
// commit.
func EarlyReturn(l *wal.Log, p []byte, flush bool) error {
	_, seq, err := l.AppendAsync(1, p)
	if err != nil {
		return err
	}
	if !flush {
		return nil // want `returns without committing the token from l\.AppendAsync \(line \d+\)`
	}
	return l.Commit(seq)
}

// Dropped binds the token but never consumes it on any path.
func Dropped(l *wal.Log, p []byte) error {
	_, seq, err := l.AppendAsync(1, p) // want `commit token from l\.AppendAsync is never passed to Commit, returned, or stored`
	_ = seq
	return err
}

// appendRec hands the token to its caller: the obligation moves with it, and
// the one-level summary makes appendRec a source for its callers.
func appendRec(l *wal.Log, p []byte) (int64, error) {
	_, seq, err := l.AppendAsync(1, p)
	return seq, err
}

// DropViaHelper obtains a token through the package-local helper and drops
// it.
func DropViaHelper(l *wal.Log, p []byte) error {
	seq, err := appendRec(l, p) // want `commit token from appendRec is never passed to Commit, returned, or stored`
	if err != nil {
		return err
	}
	_ = seq
	return nil
}

// CommitViaHelper is the approved shape for the same call.
func CommitViaHelper(l *wal.Log, p []byte) error {
	seq, err := appendRec(l, p)
	if err != nil {
		return err
	}
	return l.Commit(seq)
}

// DeferredCommit schedules the commit at return, covering every path out of
// the function.
func DeferredCommit(l *wal.Log, p []byte) int {
	_, seq, err := l.AppendAsync(1, p)
	if err != nil {
		return 0
	}
	defer func() { _ = l.Commit(seq) }()
	if len(p) == 0 {
		return 0
	}
	return len(p)
}

// pending parks a token for a later commit round.
type pending struct {
	seq int64
}

// Stash stores the token into caller-visible memory: a later round commits
// it.
func Stash(l *wal.Log, p []byte, st *pending) error {
	_, seq, err := l.AppendAsync(1, p)
	if err != nil {
		return err
	}
	st.seq = seq
	return nil
}
