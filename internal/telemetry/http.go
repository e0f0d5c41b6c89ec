package telemetry

import (
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

var publishOnce sync.Once

// startTime anchors the /healthz uptime; the process start is close
// enough for an observability endpoint.
var startTime = time.Now()

// health is the /healthz payload: enough to tell which build is serving,
// how long it has been up, and what shape the simulator runs in.
type health struct {
	Status     string `json:"status"`
	GoVersion  string `json:"goVersion"`
	Module     string `json:"module,omitempty"`
	Revision   string `json:"revision,omitempty"`
	UptimeSecs int64  `json:"uptimeSecs"`
	Shards     int64  `json:"shards"`
	Runs       int64  `json:"runs"`
}

func healthz(w http.ResponseWriter, s Snapshot) {
	h := health{
		Status:     "ok",
		GoVersion:  runtime.Version(),
		UptimeSecs: int64(time.Since(startTime).Seconds()),
		Shards:     s.Shards,
		Runs:       s.Runs,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Module = bi.Main.Path
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// Source is what one observability server exposes: a network's counters
// (Deployment.ServeTelemetry) or the process view (ProcessSnap).
type Source struct {
	// Snap reads the counters behind /metrics, /telemetry and /healthz.
	Snap func() Snapshot
	// Series, when set, writes the source's own series after the counters
	// on /metrics (a deployment's per-service series).
	Series func(w io.Writer)
	// Traces, when set, renders /traces; without it the endpoint answers
	// 404. Invoked from HTTP goroutines, so it must be safe for concurrent
	// use.
	Traces func(w io.Writer) error
}

// Handler returns the observability mux over src:
//
//	/metrics        Prometheus text exposition
//	/telemetry      the same counters as indented JSON (quantile views)
//	/healthz        build info, uptime, shard count
//	/traces         the causal timeline (Chrome trace-event JSON)
//	/debug/vars     expvar (a "smartsouth" variable holds the process view)
//	/debug/pprof/*  the standard profiling endpoints
func Handler(src Source) http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("smartsouth", expvar.Func(func() any { return ProcessSnap() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s := src.Snap()
		WriteProm(w, &s)
		if src.Series != nil {
			src.Series(w)
		}
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src.Snap())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { healthz(w, src.Snap()) })
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		if src.Traces == nil {
			http.Error(w, "no timeline to serve (timeline tracing off)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// On error the headers are committed; all that can happen is a
		// body cut short.
		_ = src.Traces(w)
	})
	// The stdlib expvar handler sets its own Content-Type, but that is an
	// implementation detail of net/http — set it explicitly so a scrape
	// never sees text/plain from a future stdlib change.
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		expvar.Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves Handler(src) on it in a background
// goroutine, returning the bound address (useful with ":0") or an error.
// The listener stays open for the life of the process — the serve mode
// of the CLI binaries is explicitly "until killed".
func Serve(addr string, src Source) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler(src)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
