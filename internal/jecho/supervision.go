package jecho

import (
	"time"

	"methodpart/internal/transport"
)

// Connection-supervision defaults. Every knob follows the repo's
// convention: zero selects the default, negative disables the mechanism.
const (
	// DefaultHeartbeatInterval is the idle-liveness probe period.
	DefaultHeartbeatInterval = 2 * time.Second
	// DefaultHeartbeatMisses is how many silent heartbeat periods a peer
	// may accumulate before it is declared dead (the read window is
	// interval × misses).
	DefaultHeartbeatMisses = 5
	// DefaultWriteTimeout bounds one frame write; a peer whose receive
	// path is wedged (full buffers, hung host) fails the write and is
	// retired instead of blocking its sender goroutine forever.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultResubscribeAttempts bounds consecutive failed reconnect
	// attempts per outage before an auto-resubscribing subscriber gives
	// up.
	DefaultResubscribeAttempts = 8
)

// supervision is the resolved per-connection liveness policy shared by the
// publisher and subscriber endpoints: how often to prove liveness
// (interval), how long to tolerate peer silence (window), and how long one
// write may block (write). Zero fields disable the respective mechanism.
type supervision struct {
	interval time.Duration // heartbeat send period
	window   time.Duration // read deadline per ReadFrame
	write    time.Duration // write deadline per WriteFrame
}

// resolveSupervision applies the 0=default / negative=disabled convention.
func resolveSupervision(interval time.Duration, misses int, write time.Duration) supervision {
	var s supervision
	if interval == 0 {
		s.interval = DefaultHeartbeatInterval
	} else if interval > 0 {
		s.interval = interval
	}
	if misses == 0 {
		misses = DefaultHeartbeatMisses
	}
	if s.interval > 0 && misses > 0 {
		s.window = s.interval * time.Duration(misses)
	}
	if write == 0 {
		s.write = DefaultWriteTimeout
	} else if write > 0 {
		s.write = write
	}
	return s
}

// probeAfter is how long a peer may stay silent before this end's idle
// heartbeats ask it for an echo: half the silence window, but never so
// late that the echo could miss it — no later than one heartbeat interval
// before the window closes.
func (s supervision) probeAfter() time.Duration {
	return min(s.window/2, s.window-s.interval)
}

// armRead starts the silence window before a blocking read.
func (s supervision) armRead(conn transport.Conn) {
	if s.window > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.window))
	}
}

// armWrite bounds the next frame write.
func (s supervision) armWrite(conn transport.Conn) {
	if s.write > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.write))
	}
}
