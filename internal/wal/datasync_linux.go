package wal

import (
	"os"
	"syscall"
)

// dsync commits a segment's data with fdatasync(2): unlike fsync it leaves
// the timestamps unwritten, and writes the size only when the size changed.
// The callback is built once per log and the RawConn captured once per
// segment, so a commit round allocates nothing.
type dsync struct {
	fn  func(fd uintptr)
	err error // fn's result
}

func (d *dsync) init() {
	d.fn = func(fd uintptr) {
		for {
			if d.err = syscall.Fdatasync(int(fd)); d.err != syscall.EINTR {
				return
			}
		}
	}
}

// sync runs fdatasync on f through rc, f's RawConn: a concurrent seal that
// closes f makes Control fail instead of recycling the descriptor.
func (d *dsync) sync(f *os.File, rc syscall.RawConn) error {
	if err := rc.Control(d.fn); err != nil {
		return err
	}
	if d.err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: d.err}
	}
	return nil
}
