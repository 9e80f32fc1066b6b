// Package wal is a smuvet lockorder fixture for the wal package's datasync
// helper: its import-path basename puts it in the lock-ordering scope. It is
// compiled only by the analyzer tests.
package wal

import (
	"os"
	"sync"
)

// Log pairs a mutex with a segment file.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// datasync stands in for the real helper, an fdatasync(2).
func datasync(f *os.File) error { return f.Sync() }

// SyncUnderLock holds the log lock across the helper's sync.
func (l *Log) SyncUnderLock() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return datasync(l.f) // want `wal\.datasync can wait on an fsync while l\.mu is held`
}

// SyncUnlocked releases the lock first, as the group-commit leader does.
func (l *Log) SyncUnlocked() error {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	return datasync(f)
}
