package sim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"smartusage/internal/trace"
)

// RunConcurrent simulates the campaign across workers goroutines and
// produces the exact same sample stream as Run, in the same order: per-user
// randomness is seeded independently (see runUser), so every user's block
// is byte-identical to the sequential run, and blocks are re-sequenced into
// panel order before delivery. Workers never touch the shared deployment:
// the shop APs a user opens carry placeholder identities until this
// goroutine names them in panel order (newOpenAP), as Run does. The sink is
// always called from this goroutine, so non-thread-safe sinks are fine.
//
// workers <= 0 uses GOMAXPROCS.
func (s *Simulator) RunConcurrent(workers int, sink Sink) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(s.Panel.Users) < 2 {
		return s.Run(sink)
	}

	type userBlock struct {
		encoded []byte // length-prefixed samples, trace wire format
		err     error
	}

	jobs := make(chan int)
	results := make(chan struct {
		idx int
		userBlock
	}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []byte
			for idx := range jobs {
				var buf []byte
				err := s.runUser(&s.Panel.Users[idx], func(sm *trace.Sample) error {
					scratch = trace.AppendSample(scratch[:0], sm)
					buf = binary.AppendUvarint(buf, uint64(len(scratch)))
					buf = append(buf, scratch...)
					return nil
				})
				results <- struct {
					idx int
					userBlock
				}{idx, userBlock{encoded: buf, err: err}}
			}
		}()
	}
	go func() {
		for i := range s.Panel.Users {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	// Re-sequence into panel order so the output matches Run exactly.
	pending := make(map[int]userBlock)
	next := 0
	var firstErr error
	var sample trace.Sample
	var it trace.Interner
	names := newOpenAPNames(s.Deploy)
	named := names.wrap(sink)
	emit := func(b userBlock, idx int) {
		if firstErr != nil {
			return
		}
		if b.err != nil {
			firstErr = fmt.Errorf("sim: user %s: %w", s.Panel.Users[idx].ID, b.err)
			return
		}
		names.nextUser()
		if err := replayBlock(b.encoded, &sample, &it, named); err != nil {
			firstErr = err
		}
	}
	for r := range results {
		pending[r.idx] = r.userBlock
		for {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			emit(b, next)
			next++
		}
	}
	return firstErr
}

// replayBlock feeds one device's encoded samples to the sink, interning
// their ESSIDs through it.
func replayBlock(buf []byte, sample *trace.Sample, it *trace.Interner, sink Sink) error {
	off := 0
	for off < len(buf) {
		size, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return fmt.Errorf("sim: corrupt worker block")
		}
		off += n
		if size > uint64(len(buf)-off) {
			return fmt.Errorf("sim: worker block truncated")
		}
		used, err := trace.DecodeSampleInterned(buf[off:off+int(size)], sample, it)
		if err != nil {
			return err
		}
		if used != int(size) {
			return fmt.Errorf("sim: worker block trailing bytes")
		}
		off += int(size)
		if err := sink(sample); err != nil {
			return err
		}
	}
	return nil
}
