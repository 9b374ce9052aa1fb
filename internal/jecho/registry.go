package jecho

import (
	"sync"
	"sync/atomic"

	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
)

// This file holds the publisher's one record of membership, the
// plan-equivalence class index. Subscribers whose class key (channel,
// compiled program, plan fingerprint) is identical share one modulator, one
// profiling collector and one marshalled frame per event, so publish work is
// O(classes) instead of O(subscribers).
//
// Every control transition (registration, plan install and refusal,
// degrade, retire) runs under classIndex.mu and ends by rebuilding one
// copy-on-write snapshot of (class, members) rows. Publish, Subscribers,
// Subscriptions, Collect, Status and Close all read that snapshot, so a
// plan flip, including a breaker-forced degrade, moves a subscription
// between classes atomically, and when Subscribers reports N the next
// publish reaches exactly those N.

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
// mu is the publisher's control lock (see the file comment).
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

// memberCount counts the subscriptions in a snapshot.
func memberCount(views []classView) int {
	n := 0
	for _, v := range views {
		n += len(v.members)
	}
	return n
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
