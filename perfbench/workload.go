package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/imaging"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
)

// workload is one named input set driven through the real
// Publisher → TCP loopback → Subscriber stack.
type workload struct {
	name     string
	source   string
	handler  string
	subs     int
	reliable bool
	// rate is the paced phase's fixed publish rate in events per second.
	// It sits below the backlog knee measured for the workload (README.md
	// records the measurement); the workload's why in BENCHMARK.json states
	// the same figure, which the smoke test checks.
	rate int
	// sizes are the square frame edges. With two sizes the input alternates
	// between them in phases, starting with sizes[0]: a sizes[0] phase of a
	// seeded phaseMin..phaseMax events, then a sizes[1] phase half as long.
	// Every pair of phases then holds the same share of each size, so a
	// latency or throughput taken over whole pairs does not depend on the
	// seed's mix, and the median and 90th percentile each fall inside one
	// size's latency mode rather than in the gap between the two. The
	// shortest phase spans 0.1 s at the paced rate, about twenty times the
	// usual adaptation lag, so a phase that ends under another split than
	// its own means the stack did not adapt, rarely that the host stalled
	// the channel.
	sizes              []int
	phaseMin, phaseMax int
	// reference computes the image the handler displays for an input frame;
	// the sinks compare every shown image against its checksum.
	reference func(*mir.Object) (*mir.Object, error)
}

// display is the edge of the square display every handler resizes to.
const display = 64

var workloads = []*workload{
	{
		// §5.1's handler on frames far above display size: the post-resize
		// continuation (PSE 3) wins, so sender-side modulation and
		// continuation marshalling carry the cost.
		name: "image-split", source: imaging.HandlerSource(display), handler: imaging.HandlerName,
		subs: 1, rate: 5000, sizes: []int{256},
		reference: resizeRef,
	},
	{
		// Frames below display size ship raw and the whole handler runs at
		// the receivers, so the per-message fixed costs of reliable fan-out
		// to two subscribers on the same plan dominate.
		name: "small-reliable", source: imaging.HandlerSource(display), handler: imaging.HandlerName,
		subs: 2, reliable: true, rate: 4000, sizes: []int{16},
		reference: resizeRef,
	},
	{
		// The three-rung showRich ladder under alternating input sizes:
		// below display the post-downsample cut wins, above it the
		// post-resize cut, so every phase change drives profile → select
		// → plan push → class migration.
		name: "size-shift", source: imaging.RichHandlerSource(display), handler: imaging.RichHandlerName,
		subs: 1, rate: 2000, sizes: []int{32, 256}, phaseMin: 400, phaseMax: 800,
		reference: func(f *mir.Object) (*mir.Object, error) {
			half, err := imaging.Downsample(f)
			if err != nil {
				return nil, err
			}
			return resizeRef(half)
		},
	},
}

func resizeRef(f *mir.Object) (*mir.Object, error) { return imaging.Resize(f, display, display) }

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// poolSize is how many distinct frames each size class cycles through.
const poolSize = 32

// maxPhasedEvents bounds the seeded phase schedule; no run publishes more.
const maxPhasedEvents = 1 << 24

// inputs are the seeded frames of one run. Event k of a channel is
// pool[phase(k)%2][k%poolSize] (pool[0] without phases); everything here
// derives from the seed alone.
type inputs struct {
	pool [][]*mir.Object
	sums [][]uint32
	// ends[p] is the first event index after phase p (phased workloads).
	ends []int
	// want[c] is the split PSE the stack should settle on for size class c.
	want []int32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newInputs(w *workload, seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6d70_6265_6e63_68))
	in := &inputs{}
	for _, size := range w.sizes {
		frames := make([]*mir.Object, poolSize)
		sums := make([]uint32, poolSize)
		for i := range frames {
			frames[i] = imaging.NewFrame(size, size, int64(rng.Uint64()>>1))
			shown, err := w.reference(frames[i])
			if err != nil {
				return nil, fmt.Errorf("reference image: %w", err)
			}
			sums[i] = checksum(shown)
		}
		in.pool = append(in.pool, frames)
		in.sums = append(in.sums, sums)
	}
	var err error
	if in.want, err = settledSplits(w, in.pool); err != nil {
		return nil, err
	}
	if len(w.sizes) > 1 {
		for end := 0; end < maxPhasedEvents; {
			n := w.phaseMin + rng.IntN(w.phaseMax-w.phaseMin+1)
			end += n
			in.ends = append(in.ends, end)
			end += n / 2
			in.ends = append(in.ends, end)
		}
	}
	return in, nil
}

// phase returns the index of the phase event k belongs to.
func (in *inputs) phase(k int) int {
	if in.ends == nil {
		return 0
	}
	return sort.SearchInts(in.ends, k+1)
}

// settled returns the split PSE the stack should settle on in phase p.
func (in *inputs) settled(p int) int32 { return in.want[p%len(in.want)] }

// phaseStart returns the first event index of phase p.
func (in *inputs) phaseStart(p int) int {
	if p == 0 {
		return 0
	}
	return in.ends[p-1]
}

// alignUp returns the first event index at or after k that starts a pair
// of phases, so that a stretch of events between two aligned indices holds
// each size in the same share. Without phases every index is aligned.
func (in *inputs) alignUp(k int) int {
	if in.ends == nil {
		return k
	}
	p := in.phase(k)
	if p%2 == 0 && in.phaseStart(p) == k {
		return k
	}
	return in.phaseStart(p/2*2 + 2)
}

// roundStart returns the index of the first event of round i's channel:
// on phased workloads each round starts at another pair of phases, so the
// rounds together cover many phase lengths.
func (in *inputs) roundStart(i int) int {
	if in.ends == nil {
		return 0
	}
	return in.phaseStart(2 * 16 * i)
}

// event returns the frame published as event k and the checksum of the
// image the handler must display for it.
func (in *inputs) event(k int) (*mir.Object, uint32) {
	c := in.phase(k) % len(in.pool)
	return in.pool[c][k%poolSize], in.sums[c][k%poolSize]
}

func checksum(img *mir.Object) uint32 {
	buf, _ := img.Fields["buff"].(mir.Bytes)
	return crc32.Checksum(buf, castagnoli)
}

// sink is one subscriber's verifying display and result recorder. It keeps
// counters and preallocated per-event slots, never the images: the k-th
// image shown must be display-sized and match the checksum of the k-th
// published frame's reference image, which also checks per-subscriber FIFO.
type sink struct {
	in      *inputs
	shown   atomic.Int64 // images displayed; next one is event shown
	results atomic.Int64 // OnResult calls; next one is event results
	bad     atomic.Int64 // images that failed verification
	lastNS  atomic.Int64 // clock reading of the latest result
	// arrive[i] and split[i] record the arrival and split PSE of result
	// base+i, for i below len(arrive). Written by the subscriber's receive
	// goroutine before results is advanced past the event; base is moved only
	// while no result is outstanding.
	base   atomic.Int64
	arrive []int64
	split  []int32

	mu       sync.Mutex
	firstBad error
}

func newSink(in *inputs, slots, first int) *sink {
	s := &sink{in: in, arrive: make([]int64, slots), split: make([]int32, slots)}
	s.shown.Store(int64(first))
	s.results.Store(int64(first))
	return s
}

func (s *sink) show(img *mir.Object) {
	k := int(s.shown.Add(1) - 1)
	_, want := s.in.event(k)
	w, _ := img.Fields["width"].(mir.Int)
	h, _ := img.Fields["height"].(mir.Int)
	if w != display || h != display {
		s.fail(fmt.Errorf("event %d shown at %dx%d, want %dx%d", k, w, h, display, display))
		return
	}
	if got := checksum(img); got != want {
		s.fail(fmt.Errorf("event %d shown with checksum %08x, want %08x", k, got, want))
	}
}

func (s *sink) fail(err error) {
	s.bad.Add(1)
	s.mu.Lock()
	if s.firstBad == nil {
		s.firstBad = err
	}
	s.mu.Unlock()
}

func (s *sink) result(r *partition.Result) {
	t := clock()
	k := s.results.Load()
	if i := k - s.base.Load(); i >= 0 && i < int64(len(s.arrive)) {
		s.arrive[i] = t
		s.split[i] = r.SplitPSE
	}
	s.lastNS.Store(t)
	s.results.Store(k + 1)
}

// splitOf returns the split PSE event k's result was delivered under.
func (s *sink) splitOf(k int) int32 { return s.split[k-int(s.base.Load())] }

// err returns the first verification failure, if any.
func (s *sink) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstBad
}

// registry builds a builtin registry holding the handler's movable
// functions from imaging.Builtins and, when snk is set, a verifying
// displayImage in place of imaging's retaining one. A non-nil busy
// accumulates the nanoseconds spent inside the builtins.
func registry(snk *sink, busy *atomic.Int64) *interp.Registry {
	base, _ := imaging.Builtins()
	reg := interp.NewRegistry()
	for _, name := range []string{"resizeTo", "downsample"} {
		b, _ := base.Lookup(name)
		reg.MustRegister(timed(*b, busy))
	}
	if snk != nil {
		d, _ := base.Lookup("displayImage")
		reg.MustRegister(timed(interp.Builtin{
			Name:   d.Name,
			Native: true,
			Cost:   d.Cost,
			Fn: func(_ *interp.Env, args []mir.Value) (mir.Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("displayImage wants 1 arg")
				}
				img, ok := args[0].(*mir.Object)
				if !ok {
					return nil, fmt.Errorf("displayImage: arg is %s", args[0].Kind())
				}
				snk.show(img)
				return mir.Null{}, nil
			},
		}, busy))
	}
	return reg
}

func timed(b interp.Builtin, busy *atomic.Int64) interp.Builtin {
	if busy == nil {
		return b
	}
	fn := b.Fn
	b.Fn = func(env *interp.Env, args []mir.Value) (mir.Value, error) {
		start := time.Now()
		v, err := fn(env, args)
		busy.Add(int64(time.Since(start)))
		return v, err
	}
	return b
}
