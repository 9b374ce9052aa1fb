package obsv

import (
	"fmt"
	"net/http"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// The profile routes are served by the handlers below rather than by
// net/http/pprof: importing that package registers its routes on
// http.DefaultServeMux, which would expose them on every default-mux
// server of a program linking this library, not only on the opt-in debug
// listener.

// handlePprof mounts the profile routes on mux.
func handlePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprofNamed)
	mux.HandleFunc("/debug/pprof/profile", pprofCPU)
	mux.HandleFunc("/debug/pprof/trace", pprofTrace)
}

// pprofNamed serves the index at /debug/pprof/ and each runtime profile
// (heap, allocs, goroutine, block, mutex, threadcreate) below it. ?debug=N
// selects a text format as runtime/pprof's Profile.WriteTo does; the
// default is the gzipped protobuf that go tool pprof reads.
func pprofNamed(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/")
	if name == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%s\t%d\n", p.Name(), p.Count())
		}
		fmt.Fprintln(w, "profile\tCPU profile over ?seconds=N (default 30)")
		fmt.Fprintln(w, "trace\texecution trace over ?seconds=N (default 1)")
		return
	}
	p := pprof.Lookup(name)
	if p == nil {
		http.NotFound(w, r)
		return
	}
	debug, _ := strconv.Atoi(r.FormValue("debug"))
	if debug == 0 {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	_ = p.WriteTo(w, debug)
}

// pprofCPU streams a CPU profile taken over ?seconds=N.
func pprofCPU(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := pprof.StartCPUProfile(w); err != nil {
		http.Error(w, "cannot start CPU profile: "+err.Error(), http.StatusInternalServerError)
		return
	}
	profileWait(r, 30*time.Second)
	pprof.StopCPUProfile()
}

// pprofTrace streams an execution trace taken over ?seconds=N.
func pprofTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := trace.Start(w); err != nil {
		http.Error(w, "cannot start trace: "+err.Error(), http.StatusInternalServerError)
		return
	}
	profileWait(r, time.Second)
	trace.Stop()
}

// profileWait sleeps for the request's ?seconds (def when absent or not
// positive), or until the client goes away.
func profileWait(r *http.Request, def time.Duration) {
	d := def
	if s, err := strconv.ParseFloat(r.FormValue("seconds"), 64); err == nil && s > 0 {
		d = time.Duration(s * float64(time.Second))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}
