package jecho

import (
	"slices"
	"sync"
	"time"
)

// Circuit-breaker defaults, following the repo's knob convention: zero
// selects the default, negative disables the breaker.
const (
	// DefaultBreakerThreshold is how many failures within the window trip
	// a PSE's breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerWindow is the sliding window failures are counted in.
	DefaultBreakerWindow = 10 * time.Second
	// DefaultBreakerCooldown is how long a tripped PSE stays excluded
	// before a half-open probe re-admits it.
	DefaultBreakerCooldown = 30 * time.Second
)

// breakerConfig is the resolved per-endpoint breaker policy.
type breakerConfig struct {
	threshold int
	window    time.Duration
	cooldown  time.Duration
}

// resolveBreaker applies the 0=default / negative=disabled convention. A
// disabled breaker is represented by a nil *pseBreaker (all methods are
// nil-safe no-ops).
func resolveBreaker(threshold int, window, cooldown time.Duration) *pseBreaker {
	if threshold < 0 || window < 0 || cooldown < 0 {
		return nil
	}
	cfg := breakerConfig{threshold: threshold, window: window, cooldown: cooldown}
	if cfg.threshold == 0 {
		cfg.threshold = DefaultBreakerThreshold
	}
	if cfg.window == 0 {
		cfg.window = DefaultBreakerWindow
	}
	if cfg.cooldown == 0 {
		cfg.cooldown = DefaultBreakerCooldown
	}
	return newPSEBreaker(cfg)
}

// pseState is one PSE's breaker state. Zero value = closed (healthy).
type pseState struct {
	// stamps are the failure times inside the current window (closed and
	// half-open states).
	stamps []time.Time
	// openUntil is when the open state ends; zero while closed.
	openUntil time.Time
	// probing marks the half-open state: the PSE has been re-admitted for
	// one trial. A failure while probing re-opens immediately; the probe
	// passes either explicitly (Succeed) or implicitly once a full failure
	// window elapses with no failure — an endpoint with no positive success
	// signal (the publisher) must not stay half-open forever, where any
	// single later failure would re-trip at an effective threshold of 1.
	probing bool
	// probeStart is when the half-open state began; meaningful only while
	// probing.
	probeStart time.Time
}

// pseBreaker tracks per-PSE failure rates and drives the
// closed → open → half-open state machine that gates split-set eligibility.
// One breaker instance serves one endpoint (a publisher subscription or a
// subscriber); both sides use the same type. All methods are safe for
// concurrent use and nil-safe, so a disabled breaker is just nil.
type pseBreaker struct {
	cfg breakerConfig
	// now is the clock, injectable for tests.
	now func() time.Time
	// onTransition, when set, observes every state change with the PSE id
	// and the new state name ("open", "half-open", "closed"). It is called
	// while the breaker mutex is held, so it must be fast and must not call
	// back into the breaker. Set before the breaker is shared between
	// goroutines.
	onTransition func(id int32, state string)

	mu     sync.Mutex
	states map[int32]*pseState
}

func newPSEBreaker(cfg breakerConfig) *pseBreaker {
	return &pseBreaker{cfg: cfg, now: time.Now, states: make(map[int32]*pseState)}
}

// notify reports a state change to the transition observer. Caller holds
// mu; the nil check keeps unobserved breakers free.
func (b *pseBreaker) notify(id int32, state string) {
	if b.onTransition != nil {
		b.onTransition(id, state)
	}
}

// observeTransitions installs the transition observer. Nil-safe (a
// disabled breaker has nothing to observe).
func (b *pseBreaker) observeTransitions(fn func(id int32, state string)) {
	if b != nil {
		b.onTransition = fn
	}
}

// state returns (creating if needed) the PSE's state. Caller holds mu.
func (b *pseBreaker) state(id int32) *pseState {
	st, ok := b.states[id]
	if !ok {
		st = &pseState{}
		b.states[id] = st
	}
	return st
}

// Fail records one failure attributed to the PSE and reports whether this
// failure tripped the breaker (closed → open, or half-open → open).
func (b *pseBreaker) Fail(id int32) bool {
	return b.FailN(id, 1)
}

// FailN records n failures at once (e.g. a failure-count delta carried by a
// profiling feedback frame) and reports whether they tripped the breaker.
func (b *pseBreaker) FailN(id int32, n uint64) bool {
	if b == nil || n == 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	st := b.state(id)
	if st.probing {
		if now.Sub(st.probeStart) < b.cfg.window {
			// Half-open: the probe failed, re-open for a fresh cooldown.
			st.probing = false
			st.stamps = st.stamps[:0]
			st.openUntil = now.Add(b.cfg.cooldown)
			b.notify(id, "open")
			return true
		}
		// The probe survived a full failure window before this failure:
		// it passed implicitly. Close the breaker and count this failure
		// against a fresh closed-state window below.
		st.probing = false
		st.openUntil = time.Time{}
		st.stamps = st.stamps[:0]
		b.notify(id, "closed")
	}
	if !st.openUntil.IsZero() && now.Before(st.openUntil) {
		// Already open; failures while excluded don't re-trip.
		return false
	}
	// n can be an unvalidated delta from a wire feedback frame; beyond the
	// trip threshold extra stamps carry no information, so clamp before the
	// append loop — a corrupt counter must not force an unbounded
	// allocation under the breaker mutex.
	if n > uint64(b.cfg.threshold) {
		n = uint64(b.cfg.threshold)
	}
	// Closed: slide the window, append, check the threshold.
	cutoff := now.Add(-b.cfg.window)
	keep := st.stamps[:0]
	for _, t := range st.stamps {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	st.stamps = keep
	for i := uint64(0); i < n; i++ {
		st.stamps = append(st.stamps, now)
	}
	if len(st.stamps) >= b.cfg.threshold {
		st.stamps = st.stamps[:0]
		st.openUntil = now.Add(b.cfg.cooldown)
		st.probing = false
		b.notify(id, "open")
		return true
	}
	return false
}

// Succeed records a successful crossing of the PSE: a half-open probe that
// succeeds closes the breaker; in the closed state success clears the
// failure window (failures must cluster to trip).
func (b *pseBreaker) Succeed(id int32) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.states[id]
	if !ok {
		return
	}
	if st.probing {
		st.probing = false
		st.openUntil = time.Time{}
		b.notify(id, "closed")
	}
	st.stamps = st.stamps[:0]
}

// Open reports whether the PSE is currently excluded from the split set.
// When the cooldown has elapsed the breaker flips to half-open — the PSE is
// re-admitted for a probe — and Open returns false.
func (b *pseBreaker) Open(id int32) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openLocked(id)
}

func (b *pseBreaker) openLocked(id int32) bool {
	st, ok := b.states[id]
	if !ok || st.openUntil.IsZero() {
		return false
	}
	now := b.now()
	if st.probing {
		if now.Sub(st.probeStart) >= b.cfg.window {
			// A full failure window passed without a probe failure: the
			// probe passed implicitly, close the breaker.
			st.probing = false
			st.openUntil = time.Time{}
			st.stamps = st.stamps[:0]
			b.notify(id, "closed")
		}
		return false
	}
	if now.Before(st.openUntil) {
		return true
	}
	// Cooldown elapsed: half-open re-admission.
	st.probing = true
	st.probeStart = now
	b.notify(id, "half-open")
	return false
}

// OpenIDs returns the sorted PSEs currently excluded (open, cooldown not
// yet elapsed), or nil without allocating when none is. PSEs whose
// cooldown has passed flip to half-open as a side effect, mirroring Open.
func (b *pseBreaker) OpenIDs() []int32 {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int32
	for id := range b.states {
		if b.openLocked(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
