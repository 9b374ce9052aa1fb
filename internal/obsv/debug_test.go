package obsv

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestDebugServerRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Register(testCollector())
	tr := NewTracer(8)
	tr.Emit(Event{Kind: EvPlanFlip, Channel: "images", Plan: 3, Detail: "split=[2]"})
	srv, err := StartDebug(DebugConfig{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Tracer:   tr,
		Split: func() []EndpointStatus {
			return []EndpointStatus{{Role: "publisher", Name: "127.0.0.1:1", Channels: []ChannelStatus{{
				ID: "s#1", Channel: "images", PlanVersion: 3, Split: []int32{2},
			}}}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, ctype, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "mp_test_published_total{role=\"publisher\",channel=\"images\"} 42") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	code, ctype, body = getBody(t, base+"/metrics.json")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/metrics.json status %d type %q", code, ctype)
	}
	var samples []map[string]any
	if err := json.Unmarshal([]byte(body), &samples); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}

	code, ctype, body = getBody(t, base+"/debug/split")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/debug/split status %d type %q", code, ctype)
	}
	var reply struct {
		Endpoints []EndpointStatus `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("/debug/split invalid: %v", err)
	}
	if len(reply.Endpoints) != 1 || reply.Endpoints[0].Role != "publisher" {
		t.Fatalf("/debug/split reply: %+v", reply)
	}

	code, ctype, body = getBody(t, base+"/debug/trace")
	if code != http.StatusOK || ctype != "application/x-ndjson" {
		t.Fatalf("/debug/trace status %d type %q", code, ctype)
	}
	if !strings.Contains(body, `"kind":"plan-flip"`) {
		t.Fatalf("/debug/trace body: %s", body)
	}
}

func TestDebugServerNilRoutes(t *testing.T) {
	srv, err := StartDebug(DebugConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, route := range []string{"/metrics", "/metrics.json", "/debug/split", "/debug/trace"} {
		code, _, _ := getBody(t, base+route)
		if code != http.StatusNotFound {
			t.Fatalf("%s with nil config: status %d, want 404", route, code)
		}
	}
}

// TestDebugServerPprof: the standard Go profiles are mounted on every
// debug listener, whatever the config.
func TestDebugServerPprof(t *testing.T) {
	srv, err := StartDebug(DebugConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, _, body := getBody(t, "http://"+srv.Addr()+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap status %d, want 200", code)
	}
	if !strings.Contains(body, "heap profile") {
		t.Fatalf("/debug/pprof/heap body does not look like a heap profile:\n%.200s", body)
	}
	base := "http://" + srv.Addr() + "/debug/pprof/"
	if code, _, body := getBody(t, base); code != http.StatusOK || !strings.Contains(body, "goroutine\t") {
		t.Fatalf("/debug/pprof/ index: status %d, body:\n%.200s", code, body)
	}
	if code, _, _ := getBody(t, base+"nosuchprofile"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/nosuchprofile status %d, want 404", code)
	}
	// The protobuf profiles are gzipped; the execution trace starts with
	// its version header.
	for route, prefix := range map[string]string{
		"allocs":               "\x1f\x8b",
		"profile?seconds=0.05": "\x1f\x8b",
		"trace?seconds=0.05":   "go 1.",
	} {
		code, _, body := getBody(t, base+route)
		if code != http.StatusOK || !strings.HasPrefix(body, prefix) {
			t.Fatalf("/debug/pprof/%s: status %d, body starts %q, want 200 and %q", route, code, body[:min(len(body), 16)], prefix)
		}
	}
}

// TestPprofNotOnDefaultMux: the profiles are served from the debug
// listener only. Linking this package must not register them on
// http.DefaultServeMux, which any nil-handler server in the program uses.
func TestPprofNotOnDefaultMux(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "http://localhost/debug/pprof/heap", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, pattern := http.DefaultServeMux.Handler(req); pattern != "" {
		t.Fatalf("http.DefaultServeMux serves /debug/pprof/heap via pattern %q", pattern)
	}
}
