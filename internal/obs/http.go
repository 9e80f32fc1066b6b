package obs

// Operational HTTP endpoints:
//
//	/metrics        Prometheus text exposition (?format=json for JSON)
//	/healthz        200 "ok" while serving, 503 "draining" during drain
//	/debug/pprof/*  the standard Go profiling endpoints
//
// Handler composes them onto one mux so a daemon can expose the whole set
// from a single -metrics-addr listener, kept separate from its service port.

import (
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Health is the liveness state behind /healthz. The zero value is healthy;
// a nil *Health is always healthy. A server is degraded (503) while it is
// recovering (replaying its WAL at startup — it would accept connections
// but double its replay work and answer with stale dedup state) and while
// it is draining (graceful shutdown). Failover clients and load balancers
// must route around both states: a mid-recovery replica is the worst
// possible failover target.
type Health struct {
	draining   atomic.Bool
	recovering atomic.Bool
}

// SetDraining flips /healthz to 503 — called when graceful shutdown begins,
// so load balancers stop routing new work while in-flight work drains.
func (h *Health) SetDraining() {
	if h == nil {
		return
	}
	h.draining.Store(true)
}

// Draining reports whether the drain flag is set.
func (h *Health) Draining() bool {
	return h != nil && h.draining.Load()
}

// SetRecovering marks (or clears) the WAL-recovery startup window. Set it
// before the WAL is opened and clear it only after Recover has finished, so
// /healthz never reports ready while replay is still rebuilding state.
func (h *Health) SetRecovering(v bool) {
	if h == nil {
		return
	}
	h.recovering.Store(v)
}

// Recovering reports whether the recovery flag is set.
func (h *Health) Recovering() bool {
	return h != nil && h.recovering.Load()
}

// Handler returns the endpoint mux for one registry and health state.
// Either may be nil: a nil registry serves an empty exposition, a nil
// health is permanently healthy.
func Handler(reg *Registry, health *Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			b, err := snap.MarshalJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if health.Recovering() {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		if health.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// headerTimeout bounds how long Serve waits for a request's headers, so a
// client that stalls mid-request cannot hold a goroutine and a descriptor
// forever. There is deliberately no write timeout: /debug/pprof/profile
// streams for 30 s by default.
const headerTimeout = 5 * time.Second

// Serve starts the endpoint server on addr in a background goroutine and
// returns it; shut it down with (*http.Server).Close. Listen errors after
// startup are reported through errf (nil discards them).
func Serve(addr string, reg *Registry, health *Health, errf func(format string, args ...any)) *http.Server {
	srv := &http.Server{Addr: addr, Handler: Handler(reg, health), ReadHeaderTimeout: headerTimeout}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed && errf != nil {
			errf("obs: metrics server: %v", err)
		}
	}()
	return srv
}
