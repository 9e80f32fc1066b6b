//go:build !linux

package wal

import (
	"os"
	"syscall"
)

// dsync falls back to fsync where fdatasync(2) is not at hand.
type dsync struct{}

func (*dsync) init() {}

func (*dsync) sync(f *os.File, _ syscall.RawConn) error { return f.Sync() }
