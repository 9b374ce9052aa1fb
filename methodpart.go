// Package methodpart is the public API of the Method Partitioning library —
// a reproduction of "Method Partitioning: Runtime Customization of Pervasive
// Programs without Design-time Application Knowledge" (Zhou, Pande, Schwan;
// ICDCS 2003).
//
// Method Partitioning splits a message-handling method into a modulator
// (running inside the message sender) and a demodulator (inside the
// receiver). Static analysis of the handler identifies Potential Split
// Edges; cost models weigh them; a Remote Continuation mechanism carries the
// live variables across the split; and runtime profiling plus a
// max-flow/min-cut reconfiguration unit keep the split point (near-)optimal
// as the workload and environment change. Changing the split is an atomic
// flag flip.
//
// Handlers are written in MIR, a small register-based instruction language
// (the reproduction's stand-in for Jimple bytecode):
//
//	src := `
//	class ImageData {
//	  width int
//	  height int
//	  buff bytes
//	}
//
//	func show(event) {
//	  ok = instanceof event ImageData
//	  ifnot ok goto done
//	  img = cast event ImageData
//	  d = const 160
//	  out = call resizeTo img d d
//	  call displayImage out
//	done:
//	  return
//	}`
//
//	h, err := methodpart.CompileHandler(src, "show",
//		methodpart.Natives("displayImage"), methodpart.WithModel(methodpart.DataSizeModel()))
//
// The compiled handler exposes its PSE table; NewModulator and
// NewDemodulator instantiate the two halves; NewReconfigUnit selects plans
// from profiled statistics. NewPublisher and SubscribeConfig/Subscribe run
// the full distributed loop over TCP (the JECho-analogue event system).
package methodpart

import (
	"fmt"

	"methodpart/internal/analysis"
	"methodpart/internal/costmodel"
	"methodpart/internal/jecho"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// Core value and execution types (MIR).
type (
	// Value is a runtime value flowing through handlers.
	Value = mir.Value
	// Object is a heap object with class and fields.
	Object = mir.Object
	// Int is the MIR integer value.
	Int = mir.Int
	// Float is the MIR float value.
	Float = mir.Float
	// Bool is the MIR boolean value.
	Bool = mir.Bool
	// Str is the MIR string value.
	Str = mir.Str
	// Bytes is the MIR byte-array value.
	Bytes = mir.Bytes
	// IntArray is the MIR int-array value.
	IntArray = mir.IntArray
	// FloatArray is the MIR float-array value.
	FloatArray = mir.FloatArray
	// Null is the MIR null value.
	Null = mir.Null

	// Registry holds the builtin functions handlers may call.
	Registry = interp.Registry
	// Builtin is one host function callable from handlers.
	Builtin = interp.Builtin
	// Env is an interpreter environment (classes + builtins + globals).
	Env = interp.Env
)

// Partitioning types.
type (
	// Handler is a compiled, analysed, partitionable message handler.
	Handler = partition.Compiled
	// PSE is one potential split edge of a handler.
	PSE = partition.PSE
	// Plan is a partitioning plan (split + profiling flags).
	Plan = partition.Plan
	// Modulator is the sender-side half.
	Modulator = partition.Modulator
	// Demodulator is the receiver-side half.
	Demodulator = partition.Demodulator
	// Relay re-partitions in-flight messages at an intermediate party
	// (three-way and longer chains; the paper's §7 modulator-propagation
	// extension).
	Relay = partition.Relay
	// ModulatorOutput is the result of modulating one event.
	ModulatorOutput = partition.Output
	// HandlerResult is the result of demodulating one message.
	HandlerResult = partition.Result

	// CostModel weighs partitioning plans (§4).
	CostModel = costmodel.Model
	// Environment describes a sender/receiver pair's resources.
	Environment = costmodel.Environment
	// PSEStats is the profiled statistics of one PSE.
	PSEStats = costmodel.Stat

	// Collector is the Runtime Profiling Unit's aggregator.
	Collector = profileunit.Collector
	// ReconfigUnit is the Runtime Reconfiguration Unit.
	ReconfigUnit = reconfig.Unit
	// SLOPolicy selects the operating point on the Pareto front of
	// candidate cuts a plan selection takes (SubscriberConfig's
	// SplitPolicy knob). The zero value, Balanced, is the legacy scalar
	// min-cut.
	SLOPolicy = reconfig.SLOPolicy
	// CostVector is the multi-objective cost of one candidate cut.
	CostVector = costmodel.Vector
	// FrontPoint is one operating point on a selection's Pareto front.
	FrontPoint = reconfig.FrontPoint

	// Publisher hosts an event channel (sender side).
	Publisher = jecho.Publisher
	// PublisherConfig configures a Publisher.
	PublisherConfig = jecho.PublisherConfig
	// Subscriber is a receiving subscription with its demodulator and
	// reconfiguration unit.
	Subscriber = jecho.Subscriber
	// SubscriberConfig configures a subscription.
	SubscriberConfig = jecho.SubscriberConfig
	// SubscriptionInfo describes one live publisher-side subscription.
	SubscriptionInfo = jecho.SubscriptionInfo
	// ChannelMetrics snapshots one event-channel endpoint's counters
	// (published, suppressed, dropped, queue high-water, bytes on wire
	// vs. bytes saved by modulation, plan flips).
	ChannelMetrics = jecho.ChannelMetrics
	// OverflowPolicy selects the backpressure behaviour of a full
	// per-subscription send queue.
	OverflowPolicy = jecho.OverflowPolicy
	// DeadLetter is one quarantined poison message (an event or
	// continuation that failed demodulation), inspectable through
	// Subscriber.DeadLetters.
	DeadLetter = jecho.DeadLetter
	// FaultClass classifies a split-execution failure on the wire
	// (decode / restore / runtime / budget).
	FaultClass = wire.NackClass

	// Transport is the frame-oriented connection layer beneath the event
	// system; implement it to carry subscriptions over a custom substrate.
	Transport = transport.Transport
	// FaultPlan configures FlakyTransport's deterministic fault injection.
	FaultPlan = transport.FaultPlan
	// FlakyTransport wraps a Transport with seeded fault injection (severed
	// links, blackholed frames, delays) for chaos testing; SeverAll cuts
	// every live connection at once.
	FlakyTransport = transport.Flaky

	// Continuation is the wire form of a remote continuation.
	Continuation = wire.Continuation
)

// Observability types (see OBSERVABILITY.md for the operator reference).
type (
	// Tracer is the bounded split-lifecycle trace ring. A nil *Tracer is
	// valid everywhere one is accepted and records nothing at zero cost.
	Tracer = obsv.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obsv.Event
	// TraceEventKind discriminates TraceEvent records (publish, demod,
	// plan flip, breaker transition, ...).
	TraceEventKind = obsv.EventKind
	// MetricsRegistry gathers Collectors and renders Prometheus text or
	// JSON. (Distinct from Registry, the builtin-function registry.)
	MetricsRegistry = obsv.Registry
	// MetricsCollector is anything that can contribute samples to a
	// MetricsRegistry; Publisher and Subscriber both implement it.
	MetricsCollector = obsv.Collector
	// MetricSample is one gathered metric sample.
	MetricSample = obsv.Sample
	// DebugConfig configures the opt-in debug HTTP listener.
	DebugConfig = obsv.DebugConfig
	// DebugServer is the running debug HTTP listener (/metrics,
	// /metrics.json, /debug/split, /debug/trace, /debug/pprof/).
	DebugServer = obsv.DebugServer
	// EndpointStatus is one endpoint's live introspection snapshot, as
	// served by /debug/split.
	EndpointStatus = obsv.EndpointStatus
)

// DefaultTraceCapacity is the trace-ring size used by NewTracer callers
// that have no better estimate; older events are overwritten (and counted
// as dropped) once the ring wraps.
const DefaultTraceCapacity = obsv.DefaultTraceCapacity

// NewTracer creates an enabled trace ring holding the last capacity
// events (capacity <= 0 selects DefaultTraceCapacity). Hand it to
// PublisherConfig.Tracer / SubscriberConfig.Tracer.
func NewTracer(capacity int) *Tracer { return obsv.NewTracer(capacity) }

// NewMetricsRegistry creates an empty metrics registry; register
// publishers and subscribers, then serve it via StartDebug or render it
// with WritePrometheus/WriteJSON.
func NewMetricsRegistry() *MetricsRegistry { return obsv.NewRegistry() }

// StartDebug binds the debug HTTP listener described by cfg and serves
// until Close. Unauthenticated — bind to loopback unless the network is
// trusted.
func StartDebug(cfg DebugConfig) (*DebugServer, error) { return obsv.StartDebug(cfg) }

// SLO policies for the SplitPolicy knob. Balanced is the zero value, so a
// config that never sets the knob keeps the legacy scalar min-cut.
const (
	// Balanced takes the scalar min-cut under the channel's cost model.
	Balanced = reconfig.Balanced
	// LatencyFirst minimises the end-to-end latency estimate.
	LatencyFirst = reconfig.LatencyFirst
	// CostFirst minimises bytes on the wire.
	CostFirst = reconfig.CostFirst
	// ReceiverWeak minimises the receiver's energy proxy (radio + CPU).
	ReceiverWeak = reconfig.ReceiverWeak
)

// ParseSLOPolicy maps a policy name ("balanced", "latency-first",
// "cost-first", "receiver-weak"; "" = Balanced) to its SLOPolicy.
func ParseSLOPolicy(name string) (SLOPolicy, error) { return reconfig.ParseSLOPolicy(name) }

// Overflow policies for PublisherConfig.OverflowPolicy.
const (
	// Block waits for queue space: lossless, but a stalled peer
	// eventually throttles publishes addressed to it.
	Block = jecho.Block
	// DropNewest sheds the freshest event when a subscription's queue is
	// full.
	DropNewest = jecho.DropNewest
	// DropOldest evicts the oldest queued frame to admit the new one
	// (last-value streams).
	DropOldest = jecho.DropOldest
)

// DefaultQueueDepth is the per-subscription send-queue bound used when
// PublisherConfig.QueueDepth is zero.
const DefaultQueueDepth = jecho.DefaultQueueDepth

// Connection-supervision defaults (zero-valued config fields select these;
// negative values disable the mechanism).
const (
	// DefaultHeartbeatInterval is the idle-liveness probe period.
	DefaultHeartbeatInterval = jecho.DefaultHeartbeatInterval
	// DefaultHeartbeatMisses is how many silent heartbeat periods declare
	// a peer dead (silence window = interval × misses).
	DefaultHeartbeatMisses = jecho.DefaultHeartbeatMisses
	// DefaultWriteTimeout bounds one frame write to a wedged peer.
	DefaultWriteTimeout = jecho.DefaultWriteTimeout
	// DefaultResubscribeAttempts bounds reconnect attempts per outage for
	// auto-resubscribing subscribers.
	DefaultResubscribeAttempts = jecho.DefaultResubscribeAttempts
)

// Fault-containment defaults (zero-valued config fields select these;
// negative values disable the mechanism).
const (
	// DefaultBreakerThreshold is how many per-PSE failures within the
	// window trip that PSE's circuit breaker.
	DefaultBreakerThreshold = jecho.DefaultBreakerThreshold
	// DefaultBreakerWindow is the breaker's failure-counting window.
	DefaultBreakerWindow = jecho.DefaultBreakerWindow
	// DefaultBreakerCooldown is how long a tripped PSE stays excluded from
	// the split set before a half-open probe re-admits it.
	DefaultBreakerCooldown = jecho.DefaultBreakerCooldown
	// DefaultDeadLetterSize bounds the subscriber's poison-message
	// quarantine ring.
	DefaultDeadLetterSize = jecho.DefaultDeadLetterSize
)

// NewFlakyTransport wraps inner with seeded fault injection for chaos
// testing and fault-tolerance experiments (see FaultPlan).
func NewFlakyTransport(inner Transport, plan FaultPlan) *FlakyTransport {
	return transport.NewFlaky(inner, plan)
}

// TCPTransport returns the stdlib-socket transport (the default when a
// config's Transport field is nil).
func TCPTransport() Transport { return transport.TCP{} }

// MemTransport returns a fresh in-process transport: publishers and
// subscribers sharing the instance reach each other without sockets —
// deterministic tests and single-process deployments. Distinct instances
// are isolated networks.
func MemTransport() Transport { return transport.NewMem() }

// RawPSEID identifies the synthetic "ship the raw event" split point.
const RawPSEID = partition.RawPSEID

// NewRegistry creates an empty builtin registry.
func NewRegistry() *Registry { return interp.NewRegistry() }

// NewEnv builds an interpreter environment from a compiled handler's class
// table and a builtin registry.
func NewEnv(h *Handler, builtins *Registry) *Env {
	return interp.NewEnv(h.Classes, builtins)
}

// DataSizeModel returns the §4.1 cost model (minimize network traffic).
func DataSizeModel() CostModel { return costmodel.NewDataSize() }

// ExecTimeModel returns the §4.2 cost model (minimize execution time).
func ExecTimeModel() CostModel { return costmodel.NewExecTime() }

// CompositeModel combines weighted cost models (§7 future work).
func CompositeModel(models []CostModel, weights []float64) (CostModel, error) {
	return costmodel.NewComposite(models, weights)
}

// CompileOption customises CompileHandler.
type CompileOption func(*compileOpts)

type compileOpts struct {
	model   CostModel
	natives map[string]bool
	oracle  analysis.NativeOracle
}

// WithModel selects the cost model (default: DataSizeModel).
func WithModel(m CostModel) CompileOption {
	return func(o *compileOpts) { o.model = m }
}

// Natives declares the handler's receiver-pinned functions (StopNodes).
func Natives(names ...string) CompileOption {
	return func(o *compileOpts) {
		if o.natives == nil {
			o.natives = make(map[string]bool)
		}
		for _, n := range names {
			o.natives[n] = true
		}
	}
}

// WithOracle supplies a NativeOracle directly (e.g. a Registry) instead of
// an explicit native list.
func WithOracle(oracle analysis.NativeOracle) CompileOption {
	return func(o *compileOpts) { o.oracle = oracle }
}

type nativeSet map[string]bool

func (s nativeSet) IsNative(fn string) bool { return s[fn] }

// CompileHandler assembles MIR source and compiles the named handler for
// partitioning: it builds the Unit Graph, runs liveness, DDG, StopNode and
// ConvexCut analysis under the cost model, and returns the handler with its
// PSE table.
func CompileHandler(source, name string, opts ...CompileOption) (*Handler, error) {
	o := compileOpts{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.model == nil {
		o.model = DataSizeModel()
	}
	oracle := o.oracle
	if oracle == nil {
		oracle = nativeSet(o.natives)
	}
	unit, err := asm.Parse(source)
	if err != nil {
		return nil, err
	}
	prog, ok := unit.Program(name)
	if !ok {
		return nil, fmt.Errorf("methodpart: handler %q not found in source", name)
	}
	classes, err := unit.ClassTable()
	if err != nil {
		return nil, err
	}
	return partition.Compile(prog, classes, oracle, o.model)
}

// NewModulator builds the sender-side half of a handler executing in env.
func NewModulator(h *Handler, env *Env) *Modulator {
	return partition.NewModulator(h, env)
}

// NewDemodulator builds the receiver-side half of a handler executing in
// env (env's registry must implement the handler's natives).
func NewDemodulator(h *Handler, env *Env) *Demodulator {
	return partition.NewDemodulator(h, env)
}

// NewRelay builds an intermediate-party re-partitioner for a handler; its
// initial plan forwards messages untouched.
func NewRelay(h *Handler, env *Env) *Relay {
	return partition.NewRelay(h, env)
}

// NewCollector creates a profiling collector sized for the handler.
func NewCollector(h *Handler) *Collector {
	return profileunit.NewCollector(h.NumPSEs())
}

// NewReconfigUnit creates a reconfiguration unit for the handler in the
// given environment.
func NewReconfigUnit(h *Handler, env Environment) *ReconfigUnit {
	return reconfig.NewUnit(h, env)
}

// DefaultEnvironment returns a neutral deployment environment.
func DefaultEnvironment() Environment { return costmodel.DefaultEnvironment() }

// NewPlan builds a plan over the handler's PSEs.
func NewPlan(h *Handler, version uint64, splitIDs, profileIDs []int32) (*Plan, error) {
	return partition.NewPlan(h.NumPSEs(), version, splitIDs, profileIDs)
}

// NewPublisher starts an event-channel publisher (sender side).
func NewPublisher(cfg PublisherConfig) (*Publisher, error) {
	return jecho.NewPublisher(cfg)
}

// Subscribe installs a handler at a remote publisher and starts the
// receiving loop with closed-loop profiling and reconfiguration.
func Subscribe(cfg SubscriberConfig) (*Subscriber, error) {
	return jecho.Subscribe(cfg)
}

// NewObject allocates an Object of the given class.
func NewObject(class string) *Object { return mir.NewObject(class) }
