package network

// Config is the resolved deployment configuration: the simulated-network
// knobs (Options) plus the observability knobs the deployment layer reads.
// It is produced by Resolve from a list of Option values.
type Config struct {
	Opts Options

	// TraceCap, when positive, asks the deployment to record pipeline
	// executions into a hop-trace ring buffer of this capacity.
	TraceCap int

	// Analysis asks the deployment to gate every program installation on
	// the network-wide static analysis: a program whose composition with
	// the already-installed programs yields an error-severity finding
	// (conflict, loop, blackhole) is rejected before any rule reaches a
	// switch.
	Analysis bool

	// Backend names the compile backend services are lowered with ("of13"
	// or "stateful"). Empty selects the deployment layer's default (the
	// SMARTSOUTH_BACKEND environment variable, then of13). The network
	// only transports the name; resolution lives with the deployment.
	Backend string
}

// Option configures a deployment: one of the functional options below
// (WithSeed, WithTrace, …).
type Option func(*Config)

// WithSeed seeds the loss process of lossy links.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Opts.Seed = seed }
}

// WithLinkDelay sets the one-way latency of every link.
func WithLinkDelay(d Time) Option {
	return func(c *Config) { c.Opts.LinkDelay = d }
}

// WithEventLimit bounds the number of simulator events per Run call.
func WithEventLimit(n int) Option {
	return func(c *Config) { c.Opts.MaxSteps = n }
}

// WithTrace enables the per-packet hop trace with a ring buffer retaining
// the last cap pipeline executions. cap <= 0 leaves tracing off.
func WithTrace(cap int) Option {
	return func(c *Config) { c.TraceCap = cap }
}

// WithoutTelemetry disables the always-on instrumentation (per-event
// counters, latency histograms, flight recorder) for this deployment —
// the telemetry-off arm of the overhead benchmark.
func WithoutTelemetry() Option {
	return func(c *Config) { c.Opts.NoTelemetry = true }
}

// WithFlightCap sizes the flight-recorder ring: 0 keeps the default
// capacity, negative disables the recorder while keeping counters and
// histograms on.
func WithFlightCap(n int) Option {
	return func(c *Config) { c.Opts.FlightCap = n }
}

// defaultTimeline is the per-lane ring depth WithTimeline selects for a
// non-positive capacity.
const defaultTimeline = 4096

// WithTimeline enables the causal traversal tracer: every injected
// packet gets a trace id, and every pipeline execution it (or any of its
// descendants) flows through becomes a span — its exec record in the
// lane's flight ring, which then retains at least the last cap records
// (4096 when cap <= 0 — unlike WithTrace, any call opts in). Tracing is
// independent of WithoutTelemetry so the overhead benchmark can isolate
// its cost.
func WithTimeline(cap int) Option {
	return func(c *Config) {
		if cap <= 0 {
			cap = defaultTimeline
		}
		c.Opts.Timeline = cap
	}
}

// WithBackend selects the compile backend services are lowered with:
// "of13" (flow/group entries, the default) or "stateful" (XFSM state
// tables). Empty defers to the SMARTSOUTH_BACKEND environment variable.
func WithBackend(name string) Option {
	return func(c *Config) { c.Backend = name }
}

// WithShards partitions the topology across n shards, each owning a
// subset of switches with its own event heap, counters and flight ring,
// synchronized by conservative time windows (see Options.Shards). n <= 1
// keeps the classic single-loop simulator.
func WithShards(n int) Option {
	return func(c *Config) { c.Opts.Shards = n }
}

// WithAnalysis gates every program installation on the network-wide
// static analysis (internal/analysis): conflicts with installed
// services, forwarding loops and blackholes reject the install.
func WithAnalysis() Option {
	return func(c *Config) { c.Analysis = true }
}

// Resolve folds a list of options into a Config. Options are applied in
// order, so later options win.
func Resolve(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}
