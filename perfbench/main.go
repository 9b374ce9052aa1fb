// Command perfbench is the repository benchmark: it drives one named
// workload through the code path users run — jecho.Publisher → TCP loopback
// → jecho.Subscriber, with the handler shipped as source, compiled at both
// ends, split at runtime, profiled and re-selected — verifies every output,
// and prints each metric by name with its unit. The last line of standard
// output is the machine-readable record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced pass times each layer from outside it and the metrics are
// the per-layer ones, including the cost of tracing. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md next to this
// file explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the channel sees, measured untraced.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"events_per_s", "1/s"},
	{"wire_bytes_per_event", "B"},
	{"allocs_per_event", "count"},
	{"peak_rss_mb", "MiB"},
	{"delivered_ratio", "ratio"},
	{"adapt_lag_events", "events"},
}

// perLayer are the traced pass's metrics, named after the module measured.
var perLayer = []metricSpec{
	{"jecho.publish_call_us_p50", "us"},
	{"jecho.send_wait_us_p50", "us"},
	{"jecho.recv_to_result_us_p50", "us"},
	{"jecho.queue_high_water", "count"},
	{"jecho.mod_runs_per_event", "ratio"},
	{"jecho.control_bytes_per_event", "B"},
	{"jecho.acks_per_kevent", "1/kevent"},
	{"jecho.feedback_per_kevent", "1/kevent"},
	{"jecho.plan_flips", "count"},
	{"jecho.lost_total", "count"},
	{"partition.compile_ms", "ms"},
	{"partition.modulate_us_p50", "us"},
	{"partition.demodulate_us_p50", "us"},
	{"partition.continuation_bytes", "B"},
	{"app.sender_builtin_us_per_event", "us"},
	{"app.receiver_builtin_us_per_event", "us"},
	{"interp.overhead_us_per_event", "us"},
	{"wire.marshal_us_p50", "us"},
	{"wire.unmarshal_us_p50", "us"},
	{"transport.write_us_p50", "us"},
	{"transport.writes_per_event", "count"},
	{"transport.bytes_per_event", "B"},
	{"reconfig.select_plan_us_p50", "us"},
	{"reconfig.front_size", "count"},
	{"reconfig.selections_per_kevent", "1/kevent"},
	{"profileunit.merge_us_p50", "us"},
	{"runtime.cpu_ms_per_kevent", "ms"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.goroutines_peak", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type record struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation, printing its report and record to
// out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: image-split, small-reliable or size-shift")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	rate := fs.Int("rate", 0, "paced publish rate in events/s (0 = the workload's fixed rate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *rate < 0 {
		return errors.New("want --seconds >= 1, --trace 0 or 1, --rate >= 0")
	}
	if *rate == 0 {
		*rate = w.rate
	}
	in, err := newInputs(w, *seed)
	if err != nil {
		return err
	}
	s := time.Duration(*seconds) * time.Second
	prov := provenance{
		Workload: w.name, Seed: *seed, Trace: *trace, Rate: *rate,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitRev: gitRev(),
		Transport: "TCP loopback (127.0.0.1), not a real or shaped link",
	}

	var rec record
	var problems []string
	if *trace == 0 {
		d := durations{warm: s / 100, paced: s / 25, sat: s / 25, rounds: 10}
		prov.phases(d, *rate)
		r, err := runPass(w, in, *rate, d, nil)
		if err != nil {
			return err
		}
		rec.Metrics = endToEndMetrics(r)
		rec.Attempted, rec.Failed, problems = r.attempted, r.failed, r.problems
		report(out, w, in, r)
	} else {
		d0 := durations{warm: s / 20, paced: s / 5, sat: s / 8, rounds: 1}
		r0, err := runPass(w, in, *rate, d0, nil)
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		tr := newTracing(w.subs)
		d1 := durations{warm: s / 20, paced: s / 4, sat: s / 5, rounds: 1}
		prov.phases(d1, *rate)
		r1, err := runPass(w, in, *rate, d1, tr)
		tr.close()
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		rp, err := replay(w, in, r1.finalSplit, r1.pacedFirst+r1.pacedN+r1.satN, tr.snaps)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rec.Metrics = perLayerMetrics(r0, r1, rp)
		rec.Attempted = r0.attempted + r1.attempted
		rec.Failed = r0.failed + r1.failed
		problems = append(r0.problems, r1.problems...)
		if lost := tr.lostEvts.Load(); lost > 0 {
			fmt.Fprintf(out, "note: %d trace events lost; reconfig.selections_per_kevent is a lower bound\n", lost)
		}
		report(out, w, in, r1)
	}
	rec.Correct = rec.Failed == 0 && len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := rec.Metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(out, "%-36s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
	pj, _ := json.Marshal(map[string]provenance{"provenance": prov}) // plain struct; cannot fail
	fmt.Fprintln(out, string(pj))
	line, _ := json.Marshal(rec) // plain maps and numbers; cannot fail
	fmt.Fprintln(out, string(line))
	if !rec.Correct {
		return fmt.Errorf("%d of %d deliveries failed, %d problems", rec.Failed, rec.Attempted, len(problems))
	}
	return nil
}

// provenance says what a record was measured on and how.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      int     `json:"trace"`
	Rate       int     `json:"paced_rate_per_s"`
	WarmS      float64 `json:"warm_s"`
	PacedS     float64 `json:"paced_s"`
	PacedN     int     `json:"paced_events"`
	SatS       float64 `json:"saturating_s"`
	Rounds     int     `json:"rounds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Transport  string  `json:"transport"`
}

func (p *provenance) phases(d durations, rate int) {
	p.WarmS, p.PacedS, p.SatS = d.warm.Seconds(), d.paced.Seconds(), d.sat.Seconds()
	p.PacedN = int(d.paced.Seconds() * float64(rate))
	p.Rounds = d.rounds
}

// gitRev is the VCS revision stamped into the binary, or "unknown" when it
// was built outside a git checkout.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// eventsPerS and bestLatency give the best over the run's rounds. The host
// is shared and steals CPU time in bursts that slow some rounds of a run by
// a varying amount; the best round measures the stack while the host leaves
// it alone, and a change to the stack moves every round.
func eventsPerS(r *result) float64 {
	best := 0.0
	for _, rd := range r.rounds {
		best = max(best, rd.eps)
	}
	return best
}

func bestLatency(r *result, p90 bool) float64 {
	best := -1.0
	for _, rd := range r.rounds {
		v := rd.p50NS
		if p90 {
			v = rd.p90NS
		}
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

func endToEndMetrics(r *result) map[string]metric {
	ev := float64(r.events)
	var lag float64
	for _, l := range r.lags {
		lag += l
	}
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(endToEnd, name)} }
	put("setup_s", float64(median(r.setupNS))/1e9)
	put("latency_p50_ms", bestLatency(r, false)/1e6)
	put("latency_p90_ms", bestLatency(r, true)/1e6)
	put("events_per_s", eventsPerS(r))
	put("wire_bytes_per_event", r.wireBytesPerEvent())
	put("allocs_per_event", float64(r.timed.proc.mallocs)/ev)
	put("peak_rss_mb", r.rss)
	put("delivered_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	put("adapt_lag_events", lag/float64(len(r.lags)))
	return m
}

// perLayerMetrics reads the layer figures from the traced pass r1 and the
// replay; the runtime and harness figures come from the untraced pass r0.
func perLayerMetrics(r0, r1 *result, rp *replayed) map[string]metric {
	tr := r1.tr
	ev := float64(r1.events)
	kev := ev / 1000
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(perLayer, name)} }

	paced := func(k int) bool { return k >= r1.pacedFirst && k < r1.pacedFirst+r1.pacedN }
	var sendWait, writeNS []int64
	for _, conn := range tr.pub.snapshot() {
		writeAt, _, ns := conn.records()
		writeNS = append(writeNS, ns...)
		for k, at := range writeAt {
			if paced(k) {
				sendWait = append(sendWait, max(0, at-tr.pubReturn[k]))
			}
		}
	}
	var recvToResult []int64
	for i, snk := range r1.sinks {
		for _, conn := range tr.subs[i].snapshot() {
			_, readAt, _ := conn.records()
			for k, at := range readAt {
				if paced(k) {
					recvToResult = append(recvToResult, snk.arrive[k-r1.pacedFirst]-at)
				}
			}
		}
	}
	put("jecho.publish_call_us_p50", us(median(tr.publishNS)))
	put("jecho.send_wait_us_p50", us(median(sendWait)))
	put("jecho.recv_to_result_us_p50", us(median(recvToResult)))
	put("jecho.queue_high_water", float64(r1.queueHW))
	put("jecho.mod_runs_per_event", float64(r1.timed.modRuns)/ev)
	put("jecho.control_bytes_per_event", float64(r1.timed.sub.ControlBytesOnWire)/ev)
	put("jecho.acks_per_kevent", float64(r1.timed.sub.AcksSent)/kev)
	put("jecho.feedback_per_kevent", float64(r1.timed.pub.FeedbackSent)/kev)
	put("jecho.plan_flips", float64(r1.timed.pub.PlanFlips))
	put("jecho.lost_total", float64(r0.lost+r1.lost))
	put("partition.compile_ms", ms(rp.compileNS))
	put("partition.modulate_us_p50", us(rp.modNS))
	put("partition.demodulate_us_p50", us(rp.demodNS))
	put("partition.continuation_bytes", rp.contBytes)
	put("app.sender_builtin_us_per_event", float64(r1.timed.busy[0])/ev/1e3)
	put("app.receiver_builtin_us_per_event", float64(r1.timed.busy[1])/ev/1e3)
	put("interp.overhead_us_per_event", rp.interpOverheadNS/1e3)
	put("wire.marshal_us_p50", us(rp.marshalNS))
	put("wire.unmarshal_us_p50", us(rp.unmarshalNS))
	put("transport.write_us_p50", us(median(writeNS)))
	put("transport.writes_per_event", float64(r1.timed.wrap[0])/ev)
	put("transport.bytes_per_event", float64(r1.timed.wrap[1])/ev)
	put("reconfig.select_plan_us_p50", us(rp.selectNS))
	put("reconfig.front_size", rp.frontSize)
	put("reconfig.selections_per_kevent", float64(r1.timed.minCuts)/kev)
	put("profileunit.merge_us_p50", us(rp.mergeNS))
	put("runtime.cpu_ms_per_kevent", ms(r0.timed.proc.cpuNS)/(float64(r0.events)/1000))
	put("runtime.gc_cpu_ratio", r0.timed.proc.gcCPU/r0.timed.proc.allCPU)
	put("runtime.goroutines_peak", float64(tr.goroutinesPeak.Load()))
	put("bench.gen_late_p99_ms", ms(percentile(r0.lateNS, 0.99)))
	put("bench.latency_p99_ms", ms(percentile(r0.latNS, 0.99)))
	put("bench.trace_overhead_ratio", eventsPerS(r0)/eventsPerS(r1))
	return m
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: no spec for metric " + name)
}

// report prints the figures behind the metrics that the record leaves out.
func report(out io.Writer, w *workload, in *inputs, r *result) {
	fmt.Fprintf(out, "workload %s: %d subscriber(s), reliable=%v, sizes %v\n", w.name, w.subs, w.reliable, w.sizes)
	for i, rd := range r.rounds {
		fmt.Fprintf(out, "round %d: paced latency p50 %.4f ms p90 %.4f ms; saturating %.0f events/s\n",
			i, rd.p50NS/1e6, rd.p90NS/1e6, rd.eps)
	}
	fmt.Fprintf(out, "paced, all rounds: %d latency samples, p99 %.4f ms; generator late p50 %.4f ms p99 %.4f ms\n",
		len(r.latNS), ms(percentile(r.latNS, 0.99)), ms(percentile(r.lateNS, 0.5)), ms(percentile(r.lateNS, 0.99)))
	fmt.Fprintf(out, "timed window: %d events, %d input shifts, %d plan flips; %d set-ups\n",
		r.events, r.shifts, r.timed.pub.PlanFlips, len(r.setupNS))
	maxLag := 0.0
	for _, l := range r.lags {
		maxLag = max(maxLag, l)
	}
	fmt.Fprintf(out, "adaptation: settles on split PSE %v (per size class); %d samples, lag max %.0f events, %d unsettled\n",
		in.want, len(r.lags), maxLag, len(r.unsettled))
	fmt.Fprintf(out, "failed_ratio %.6f (%d of %d deliveries)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	if len(r.problems) == 0 {
		fmt.Fprintln(out, "identities hold: Enqueued == EventsSent + Dropped, Processed == sink results, "+
			"ModulatorRuns + ModulationsSaved == events x subscribers")
	}
}
