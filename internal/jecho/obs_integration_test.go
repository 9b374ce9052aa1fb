package jecho_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
)

// startTracedPair is startPair with a shared tracer and no TCP: a
// publisher/subscriber pair whose observability surface the tests below
// inspect.
func startTracedPair(t *testing.T, tr *obsv.Tracer) (*jecho.Publisher, *jecho.Subscriber, *results) {
	t.Helper()
	pubReg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Addr:          "127.0.0.1:0",
		Builtins:      pubReg,
		FeedbackEvery: 2,
		Tracer:        tr,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	subReg, _ := imaging.Builtins()
	res := &results{}
	sub, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:          pub.Addr(),
		Name:          "client",
		Source:        imaging.HandlerSource(160),
		Handler:       imaging.HandlerName,
		CostModel:     costmodel.DataSizeName,
		Natives:       []string{"displayImage"},
		Builtins:      subReg,
		Environment:   costmodel.DefaultEnvironment(),
		OnResult:      res.add,
		ReconfigEvery: 2,
		DiffThreshold: 0.1,
		Tracer:        tr,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return pub, sub, res
}

// TestMetricsExposition drives traffic through a live pair and checks the
// gathered Prometheus text: channel counter families for both roles and
// per-PSE histograms with plausible contents.
func TestMetricsExposition(t *testing.T) {
	tr := obsv.NewTracer(1024)
	pub, sub, res := startTracedPair(t, tr)
	for i := 0; i < 12; i++ {
		publishReaching(t, pub, imaging.NewFrame(64, 64, int64(i)), 1)
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, res, 12)

	reg := obsv.NewRegistry()
	reg.Register(pub)
	reg.Register(sub)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE methodpart_channel_published_total counter",
		"# TYPE methodpart_channel_queue_high_water gauge",
		"# TYPE methodpart_pareto_front_size gauge",
		"# TYPE methodpart_policy_flips_total counter",
		`policy="balanced"`,
		"# TYPE methodpart_pse_latency_seconds histogram",
		"# TYPE methodpart_pse_bytes histogram",
		"# TYPE methodpart_pse_work_units histogram",
		`role="publisher"`,
		`role="subscriber"`,
		"methodpart_publisher_subscriptions 1",
		"methodpart_pse_latency_seconds_bucket",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
	// Line-level format check: every non-comment, non-blank line is
	// "name value" or "name{labels} value".
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed label set in %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "methodpart_") {
			t.Fatalf("unexpected family in %q", line)
		}
	}
	// The trace saw the traffic both ways.
	var pubEv, demodEv int
	for _, ev := range tr.Snapshot() {
		switch ev.Kind {
		case obsv.EvPublish, obsv.EvSuppress:
			pubEv++
		case obsv.EvDemod:
			demodEv++
		}
	}
	if pubEv < 12 || demodEv < 1 {
		t.Fatalf("trace saw %d publish-side and %d demod events", pubEv, demodEv)
	}
}

// TestDebugSplitSchema serves a live pair through the debug listener and
// checks the /debug/split document's shape: both endpoints present, the
// publisher's channel carrying a full PSE table, plan, counters and (after
// reconfiguration) a min-cut explanation.
func TestDebugSplitSchema(t *testing.T) {
	tr := obsv.NewTracer(1024)
	pub, sub, res := startTracedPair(t, tr)
	for i := 0; i < 12; i++ {
		publishReaching(t, pub, imaging.NewFrame(64, 64, int64(i)), 1)
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, res, 12)

	reg := obsv.NewRegistry()
	reg.Register(pub)
	reg.Register(sub)
	srv, err := obsv.StartDebug(obsv.DebugConfig{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Tracer:   tr,
		Split: func() []obsv.EndpointStatus {
			return []obsv.EndpointStatus{pub.Status(), sub.Status()}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/split")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Endpoints []obsv.EndpointStatus `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("/debug/split not JSON: %v\n%s", err, body)
	}
	if len(reply.Endpoints) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(reply.Endpoints))
	}
	byRole := map[string]obsv.EndpointStatus{}
	for _, ep := range reply.Endpoints {
		byRole[ep.Role] = ep
	}
	pubEp, ok := byRole["publisher"]
	if !ok {
		t.Fatalf("no publisher endpoint in %s", body)
	}
	subEp, ok := byRole["subscriber"]
	if !ok {
		t.Fatalf("no subscriber endpoint in %s", body)
	}
	if len(pubEp.Channels) != 1 {
		t.Fatalf("publisher channels = %+v", pubEp.Channels)
	}
	ch := pubEp.Channels[0]
	if ch.Handler != imaging.HandlerName {
		t.Errorf("handler = %q", ch.Handler)
	}
	if ch.PlanVersion == 0 {
		t.Error("plan version still zero after reconfiguration")
	}
	if len(ch.PSEs) == 0 {
		t.Fatal("empty PSE table")
	}
	var sawRaw, sawProfiled bool
	for _, pse := range ch.PSEs {
		if pse.ID == partition.RawPSEID {
			sawRaw = true
		}
		if pse.Count > 0 {
			sawProfiled = true
		}
	}
	if !sawRaw {
		t.Errorf("PSE table misses the raw PSE: %+v", ch.PSEs)
	}
	if !sawProfiled {
		t.Errorf("no profiled statistics in the PSE table: %+v", ch.PSEs)
	}
	if ch.Metrics["methodpart_channel_published_total"] == 0 {
		t.Errorf("counter map: %v", ch.Metrics)
	}
	// The subscriber ran its reconfiguration unit, so its min-cut
	// explanation must be present and consistent with its plan.
	subCh := subEp.Channels[0]
	if subCh.LastMinCut == nil {
		t.Fatal("subscriber has no min-cut explanation after reconfiguring")
	}
	if subCh.LastMinCut.Version == 0 || len(subCh.LastMinCut.Capacities) == 0 {
		t.Errorf("min-cut explanation = %+v", subCh.LastMinCut)
	}
	// The explanation carries the Pareto front: the policy name, at least
	// one point, the pinned balanced point, and a coherent chosen mark.
	mc := subCh.LastMinCut
	if mc.Policy != "balanced" {
		t.Errorf("policy = %q, want balanced (the zero value)", mc.Policy)
	}
	if len(mc.Front) == 0 {
		t.Fatalf("min-cut explanation has no front: %+v", mc)
	}
	if mc.Chosen < 0 || mc.Chosen >= len(mc.Front) || !mc.Front[mc.Chosen].Chosen {
		t.Errorf("chosen = %d inconsistent with front %+v", mc.Chosen, mc.Front)
	}
	balanced := 0
	for _, p := range mc.Front {
		if p.Balanced {
			balanced++
		}
	}
	if balanced != 1 {
		t.Errorf("front has %d balanced points, want 1: %+v", balanced, mc.Front)
	}
}
