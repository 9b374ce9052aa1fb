package jecho

import (
	"sync"
	"sync/atomic"

	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
)

// This file holds the publisher's two subscription indexes:
//
//   - subRegistry: id → subscription, sharded so handshake/retire churn on
//     one shard never serializes against the others (the seed's single
//     map+mutex was the registry-side scaling wall of ROADMAP item 1);
//   - classIndex: plan-equivalence classes. Subscribers whose class key
//     (channel, compiled program, plan fingerprint) is identical share one
//     modulator, one profiling collector and one marshalled frame per
//     event, so publish work is O(classes) instead of O(subscribers).
//
// Membership mutations (join/leave/migrate) all run under classIndex.mu and
// publish reads copy-on-write snapshots, so a plan flip — including a
// breaker-forced degrade — moves a subscription between classes atomically:
// every publish that starts after the flip sees the subscription in exactly
// one class, the one with the new plan.

// regShardCount is the subscriber-registry shard count. Shards are cheap
// (a map and a mutex); 16 keeps p(collision) low for the tail of realistic
// concurrent handshake/retire rates without making iteration noticeable.
const regShardCount = 16

// regShard is one slice of the subscriber registry.
type regShard struct {
	mu   sync.Mutex
	subs map[string]*subscription

	// acquires/contended instrument the shard lock: contended counts
	// acquisitions that found the lock held (TryLock failed) and had to
	// wait. Exposed as methodpart_registry_shard_* samples.
	acquires  atomic.Uint64
	contended atomic.Uint64
}

// lock takes the shard mutex, counting contention.
func (s *regShard) lock() {
	s.acquires.Add(1)
	if !s.mu.TryLock() {
		s.contended.Add(1)
		s.mu.Lock()
	}
}

// subRegistry is the sharded id → subscription map.
type subRegistry struct {
	shards [regShardCount]regShard
	count  atomic.Int64
}

func (r *subRegistry) init() {
	for i := range r.shards {
		r.shards[i].subs = make(map[string]*subscription)
	}
}

// shardFor hashes a subscription id onto its shard (FNV-1a).
func (r *subRegistry) shardFor(id string) *regShard {
	h := uint64(fnvOffset64reg)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64reg
	}
	return &r.shards[h%regShardCount]
}

const (
	fnvOffset64reg = 14695981039346656037
	fnvPrime64reg  = 1099511628211
)

func (r *subRegistry) insert(s *subscription) {
	sh := r.shardFor(s.id)
	sh.lock()
	sh.subs[s.id] = s
	sh.mu.Unlock()
	r.count.Add(1)
}

// remove deletes the id and reports whether it was present.
func (r *subRegistry) remove(id string) bool {
	sh := r.shardFor(id)
	sh.lock()
	_, ok := sh.subs[id]
	if ok {
		delete(sh.subs, id)
	}
	sh.mu.Unlock()
	if ok {
		r.count.Add(-1)
	}
	return ok
}

// size returns the live subscription count.
func (r *subRegistry) size() int { return int(r.count.Load()) }

// snapshot copies the live subscriptions out of all shards.
func (r *subRegistry) snapshot() []*subscription {
	out := make([]*subscription, 0, r.size())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.lock()
		for _, s := range sh.subs {
			out = append(out, s)
		}
		sh.mu.Unlock()
	}
	return out
}

// classKey identifies a plan-equivalence class: everything that decides
// what bytes a subscription receives for a given event. prog is the dense
// id the publisher's compile cache assigns each distinct compiled handler
// (source + cost model + native set), plan is the plan fingerprint (split
// and profile sets; versions are per subscription, not behaviour).
// Batching is publisher-wide, so every class of one publisher shares it.
type classKey struct {
	channel string
	prog    uint64
	plan    uint64
}

// planClass is one equivalence class: the shared modulation state plus a
// copy-on-write member list.
type planClass struct {
	key      classKey
	compiled *partition.Compiled
	// mod is the class's single modulator. Its plan never changes: a plan
	// flip migrates members to another class (classes are as immutable as
	// the plans that define them), so publish never observes a half-updated
	// (key, plan) pair.
	mod *partition.Modulator
	// coll aggregates sender-side profiling for the class; per-member
	// feedback frames snapshot it.
	coll *profileunit.Collector
	// hists are the class's always-on per-PSE histograms.
	hists *pseHistograms

	// members is the copy-on-write member list, rebuilt under classIndex.mu
	// on every membership change and read lock-free by publish.
	members atomic.Pointer[[]*subscription]
}

// memberList returns the current member snapshot (never nil).
func (c *planClass) memberList() []*subscription {
	if p := c.members.Load(); p != nil {
		return *p
	}
	return nil
}

// classView is one row of the publish snapshot: a class and its member list
// frozen at the same rebuild. Publish must read both through a single
// atomic load — reading the class list and each member list separately
// would let a concurrent migration show a subscription in zero classes (or
// two) of one publish, dropping or duplicating an event.
type classView struct {
	class   *planClass
	members []*subscription
}

// classIndex is the class table plus its copy-on-write publish snapshot.
type classIndex struct {
	mu      sync.Mutex
	classes map[classKey]*planClass
	snap    atomic.Pointer[[]classView]
}

func (x *classIndex) init() {
	x.classes = make(map[classKey]*planClass)
	empty := make([]classView, 0)
	x.snap.Store(&empty)
}

// snapshot returns the live class+member view. Lock-free; the slice and the
// member lists inside it are immutable.
func (x *classIndex) snapshot() []classView {
	return *x.snap.Load()
}

// rebuildLocked refreshes the publish snapshot. Caller holds x.mu; every
// membership mutation must call this before releasing it.
func (x *classIndex) rebuildLocked() {
	list := make([]classView, 0, len(x.classes))
	for _, c := range x.classes {
		list = append(list, classView{class: c, members: c.memberList()})
	}
	x.snap.Store(&list)
}

// addMemberLocked appends s to c's member list (copy-on-write). Caller
// holds classIndex.mu.
func addMemberLocked(c *planClass, s *subscription) {
	old := c.memberList()
	next := make([]*subscription, 0, len(old)+1)
	next = append(next, old...)
	next = append(next, s)
	c.members.Store(&next)
}

// removeMemberLocked removes s from c's member list and reports the
// remaining size. Caller holds classIndex.mu.
func removeMemberLocked(c *planClass, s *subscription) int {
	old := c.memberList()
	next := make([]*subscription, 0, len(old))
	for _, m := range old {
		if m != s {
			next = append(next, m)
		}
	}
	c.members.Store(&next)
	return len(next)
}
