package collector

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"smartusage/internal/trace"
)

// FuzzDecodeCheckpoint throws arbitrary bytes at the checkpoint decoder,
// which reads a WAL record at recovery: it must never panic, and a
// checkpoint it accepts must re-encode to one that decodes to the same sink
// state and device map.
func FuzzDecodeCheckpoint(f *testing.F) {
	devices := map[trace.DeviceID]*deviceState{
		7: {haveLast: true, lastBatch: 12, samples: 72},
		9: {partialID: 3, partialNext: 2, samples: 14},
	}
	f.Add(appendCheckpoint(nil, devices, binary.AppendUvarint(nil, 5)))
	f.Add(appendCheckpoint(nil, nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a device count past the payload

	f.Fuzz(func(t *testing.T, data []byte) {
		state, devs, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		state2, devs2, err := decodeCheckpoint(appendCheckpoint(nil, devs, state))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(state, state2) || !reflect.DeepEqual(devs, devs2) {
			t.Fatalf("checkpoint changed across a re-encode: sink state %x -> %x, %d -> %d devices", state, state2, len(devs), len(devs2))
		}
	})
}
