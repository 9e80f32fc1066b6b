// Package collector is a smuvet lockorder fixture: its import-path basename
// puts it in the lock-ordering scope. It is compiled only by the analyzer
// tests.
package collector

import (
	"os"
	"sync"
	"syscall"

	"smartusage/internal/wal"
)

// Server pairs a mutex with a WAL, the shape the group-commit split is for.
type Server struct {
	mu sync.Mutex
	w  *wal.Log
}

// CommitUnderLock holds the server lock across the fsync wait: every
// concurrent accept serializes behind the disk.
func (s *Server) CommitUnderLock(seq int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Commit(seq) // want `wal\.Log\.Commit can wait on an fsync while s\.mu is held`
}

// DatasyncUnderLock holds the server lock across an fdatasync of a file.
func (s *Server) DatasyncUnderLock(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return syscall.Fdatasync(int(f.Fd())) // want `syscall\.Fdatasync can wait on an fsync while s\.mu is held`
}

// GroupCommit is the approved split: AppendAsync under the lock, the fsync
// wait outside it.
func (s *Server) GroupCommit(p []byte) error {
	s.mu.Lock()
	_, seq, err := s.w.AppendAsync(1, p)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.w.Commit(seq)
}

// flushLocked runs with s.mu held (the *Locked convention) and waits for the
// fsync without releasing it.
func (s *Server) flushLocked() error {
	return s.w.Sync() // want `wal\.Log\.Sync can wait on an fsync while s\.mu is held`
}

// drainLocked releases s.mu around the wait — the commitLocked pattern.
func (s *Server) drainLocked() error {
	s.mu.Unlock()
	err := s.w.Sync()
	s.mu.Lock()
	return err
}

// DoubleLock re-acquires a mutex already held on the same path.
func (s *Server) DoubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want `s\.mu is locked while already held on this path: self-deadlock`
	s.mu.Unlock()
	s.mu.Unlock()
}

// pair holds two mutexes that the functions below take in opposite orders.
type pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// lockAB takes a then b; together with lockBA this closes an ABBA cycle, and
// the report lands on the cycle's earliest edge.
func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want `lock acquisition cycle among \{pair\.a, pair\.b\}`
	p.n++
	p.b.Unlock()
	p.a.Unlock()
}

// lockBA takes b then a.
func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock()
	p.n--
	p.a.Unlock()
	p.b.Unlock()
}
