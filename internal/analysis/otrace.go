package analysis

// Stage tracing hooks. The tracer is injected through a package-global
// rather than threaded through every exported signature: the pipeline entry
// points (BuildPrep, Run) are called from many layers and benchmarks, and
// tracing is a cross-cutting, optional concern. The pointer
// is atomic so a tracer can be installed while analyses run elsewhere, and
// every hook is nil-safe (a nil tracer starts nil spans, which no-op), so
// the instrumented paths cost one atomic load when tracing is off.

import (
	"sync/atomic"

	"smartusage/internal/obs"
)

var tracer atomic.Pointer[obs.Tracer]

// SetTracer installs the stage tracer for the analysis engine; nil removes
// it. Spans cover each pipeline stage: prepass and analysis shards (one
// trace track per shard), and merges (one span per analyzer).
func SetTracer(t *obs.Tracer) { tracer.Store(t) }

// traceStart begins a span on the installed tracer (nil and inert when no
// tracer is installed).
func traceStart(name string) *obs.Span { return tracer.Load().Start(name) }
