//go:build !linux

package wal

import "os"

// datasync falls back to fsync where fdatasync(2) is not at hand.
func datasync(f *os.File) error { return f.Sync() }
