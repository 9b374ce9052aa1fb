package partition

import "fmt"

// Plan is one partitioning plan: per-PSE split and profile flags plus a
// version. Plans are immutable; the modulator swaps them atomically, so
// adaptation costs one pointer store (§2.6, "light-weight adaptation").
type Plan struct {
	version uint64
	split   []bool
	profile []bool
	// raw caches split[RawPSEID].
	raw bool
	// splitIDs caches the flagged ids for wire encoding.
	splitIDs   []int32
	profileIDs []int32
	// fingerprint caches the FNV-1a hash over (split set, profile set);
	// see Fingerprint.
	fingerprint uint64
}

// FNV-1a 64-bit parameters, inlined so the fingerprint needs no
// hash/fnv allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix64 folds one 64-bit word into an FNV-1a state byte by byte.
func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// NewPlan builds a plan over numPSEs PSEs. Ids out of range are rejected.
func NewPlan(numPSEs int, version uint64, splitIDs, profileIDs []int32) (*Plan, error) {
	p := &Plan{
		version: version,
		split:   make([]bool, numPSEs),
		profile: make([]bool, numPSEs),
	}
	for _, id := range splitIDs {
		if id < 0 || int(id) >= numPSEs {
			return nil, fmt.Errorf("partition: split id %d out of range [0,%d)", id, numPSEs)
		}
		if !p.split[id] {
			p.split[id] = true
			p.splitIDs = append(p.splitIDs, id)
		}
	}
	for _, id := range profileIDs {
		if id < 0 || int(id) >= numPSEs {
			return nil, fmt.Errorf("partition: profile id %d out of range [0,%d)", id, numPSEs)
		}
		if !p.profile[id] {
			p.profile[id] = true
			p.profileIDs = append(p.profileIDs, id)
		}
	}
	p.raw = numPSEs > 0 && p.split[RawPSEID]
	p.splitIDs = SortedIDs(p.splitIDs)
	p.profileIDs = SortedIDs(p.profileIDs)
	h := uint64(fnvOffset64)
	for _, id := range p.splitIDs {
		h = fnvMix64(h, uint64(id))
	}
	// A separator word keeps {split=[1], profile=[]} distinct from
	// {split=[], profile=[1]}.
	h = fnvMix64(h, ^uint64(0))
	for _, id := range p.profileIDs {
		h = fnvMix64(h, uint64(id))
	}
	p.fingerprint = h
	return p, nil
}

// Fingerprint is a stable 64-bit identity of the plan's observable
// behaviour: the sorted split and profile sets. The version is not part of
// it — two plans of the same handler that differ only in version modulate
// every event identically, which is what lets the publisher pool
// subscriptions with different plan histories into one plan-equivalence
// class.
func (p *Plan) Fingerprint() uint64 { return p.fingerprint }

// Version returns the plan version.
func (p *Plan) Version() uint64 { return p.version }

// Raw reports whether the plan cuts at the synthetic entry PSE (ship the
// unmodulated event).
func (p *Plan) Raw() bool { return p.raw }

// Split reports whether the split flag of PSE id is set.
func (p *Plan) Split(id int32) bool {
	return id >= 0 && int(id) < len(p.split) && p.split[id]
}

// Profile reports whether the profiling flag of PSE id is set.
func (p *Plan) Profile(id int32) bool {
	return id >= 0 && int(id) < len(p.profile) && p.profile[id]
}

// SplitIDs returns the flagged split ids in ascending order. The slice must
// not be modified.
func (p *Plan) SplitIDs() []int32 { return p.splitIDs }

// ProfileIDs returns the flagged profile ids in ascending order. The slice
// must not be modified.
func (p *Plan) ProfileIDs() []int32 { return p.profileIDs }

// String renders the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("plan{v%d split=%v profile=%v}", p.version, p.splitIDs, p.profileIDs)
}

// AllProfileIDs returns every PSE id of a compiled handler, for plans that
// profile everything.
func AllProfileIDs(c *Compiled) []int32 {
	out := make([]int32, c.NumPSEs())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
