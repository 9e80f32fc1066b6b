// Package waltest opens write-ahead logs for tests.
package waltest

import (
	"testing"

	"smartusage/internal/wal"
)

// Open opens an FsyncOff log in a fresh temporary directory and closes it
// when tb ends. It suits a collector under test whose durability is not what
// the test checks: every batch still takes the WAL path it takes in
// production, without an fsync per batch.
func Open(tb testing.TB) *wal.Log {
	tb.Helper()
	l, err := wal.Open(tb.TempDir(), wal.Options{Policy: wal.FsyncOff})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := l.Close(); err != nil {
			tb.Error(err)
		}
	})
	return l
}
