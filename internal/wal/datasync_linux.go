package wal

import (
	"os"
	"syscall"
)

// datasync commits f's data with fdatasync(2): unlike fsync it leaves the
// timestamps unwritten, and writes the size only when the size changed.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
