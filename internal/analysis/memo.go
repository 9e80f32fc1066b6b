package analysis

// memo caches the value resolved for the last key looked up. Both passes
// see each device's samples in runs — a device-day is ~144 consecutive
// samples in every trace the simulator, the fan-out and tiermerge deliver —
// so a lookup keyed by device or device-day (or by the pair a device is
// associated with, which rarely changes between its samples) hits the memo
// on all but the first sample of a run, where it would otherwise hash a map
// key per sample.
//
// A memo is only a cache: a miss recomputes, so no result depends on device
// contiguity (TestMemosIgnoreDeviceOrder interleaves devices to pin this).
// The owner must reset it wherever the map it shadows changes other than
// through the memo's own put — in Merge and Result. Each goroutine
// keeps its own memos.
type memo[K comparable, V any] struct {
	key K
	val V
	ok  bool
}

// get returns the cached value when k is the memoized key.
func (m *memo[K, V]) get(k K) (V, bool) {
	if m.ok && m.key == k {
		return m.val, true
	}
	var zero V
	return zero, false
}

// put memoizes v for k.
func (m *memo[K, V]) put(k K, v V) { *m = memo[K, V]{key: k, val: v, ok: true} }

// reset forgets the memoized key.
func (m *memo[K, V]) reset() { *m = memo[K, V]{} }
