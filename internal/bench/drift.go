package bench

import (
	"fmt"
	"io"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/linkest"
	"methodpart/internal/mir/interp"
	"methodpart/internal/reconfig"
	"methodpart/internal/simnet"
)

// This file is the `mpbench -experiment drift` harness: the acceptance
// scenario for the measurement loop. A link whose bandwidth degrades
// mid-run separates three arms of the same forked-front workload:
//
//   - static: selections keep pricing the deployment-time bandwidth, so the
//     split stays stale after the link degrades;
//   - live: a linkest estimator (fed from the virtual timeline) measures the
//     degradation, and selection — behind flip hysteresis — moves the split
//     to the degraded link's optimum;
//   - jitter: the same estimator over a link with brief transient dips, where
//     hysteresis must suppress the flips the dips tempt (suppressed > 0, no
//     plan change).

// DriftConfig configures the drift experiment.
type DriftConfig struct {
	// Image is the forked-front image workload (see DefaultParetoConfig);
	// its LinkBytesPerMS is the healthy bandwidth.
	Image ImageConfig
	// DegradedBytesPerMS is the bandwidth after degradation (and during
	// jitter dips).
	DegradedBytesPerMS float64
	// DegradeAtMS is the virtual time the static/live arms' link degrades
	// permanently.
	DegradeAtMS float64
	// JitterDips, JitterStartMS, JitterPeriodMS, JitterDipMS shape the
	// jitter arm: JitterDips transient dips to DegradedBytesPerMS, each
	// JitterDipMS long, every JitterPeriodMS from JitterStartMS.
	JitterDips     int
	JitterStartMS  float64
	JitterPeriodMS float64
	JitterDipMS    float64
	// HalfLifeMS is the estimator's EWMA half-life in virtual ms.
	HalfLifeMS float64
	// FlipMargin and FlipConfirmations are the hysteresis knobs (see
	// reconfig.Unit).
	FlipMargin        float64
	FlipConfirmations int
}

// DefaultDriftConfig is the acceptance configuration: the forked-front
// pareto workload, a 20x mid-run bandwidth collapse, and eight 30ms dips
// for the jitter arm. The pipeline completes a frame about every 90ms, so
// the dips recur every 910ms rather than 900ms: a period of whole frame
// cycles would land every dip at the same phase of the cycle, and where
// that phase finds the link idle no dip is ever observed.
func DefaultDriftConfig() DriftConfig {
	img := DefaultParetoConfig()
	img.Frames = 300
	return DriftConfig{
		Image:              img,
		DegradedBytesPerMS: 100,
		DegradeAtMS:        1500,
		JitterDips:         8,
		JitterStartMS:      800,
		JitterPeriodMS:     910,
		JitterDipMS:        30,
		HalfLifeMS:         100,
		FlipMargin:         0.1,
		FlipConfirmations:  3,
	}
}

// DriftArm is one arm's measured outcome.
type DriftArm struct {
	// Name is "static", "live" or "jitter".
	Name string
	// FinalCut is the last selection's chosen cut.
	FinalCut []int32
	// PlanSwitches counts installed plan changes after the first.
	PlanSwitches int
	// FlipsSuppressed counts selections where hysteresis held the
	// incumbent against a margin-beating challenger.
	FlipsSuppressed uint64
	// KBPerFrame is the mean payload shipped per frame.
	KBPerFrame float64
	// MeanSpanMS is the mean end-to-end latency per frame (virtual ms).
	MeanSpanMS float64
	// MeasuredBW is the estimator's final bandwidth estimate (0 in the
	// static arm, which has no estimator).
	MeasuredBW float64
}

// DriftComparison is the full experiment outcome plus the verdicts the
// acceptance criteria check.
type DriftComparison struct {
	// Arms holds static, live, jitter in that order.
	Arms []DriftArm
	// StaticStale: the static arm never flipped off the healthy-link
	// optimum even though the link degraded under it.
	StaticStale bool
	// LiveFlipped: the live arm's final cut differs from the static arm's
	// (measurement moved the operating point).
	LiveFlipped bool
	// LiveWinsSpan: the live arm's mean end-to-end latency beat the static
	// arm's on the same degraded link.
	LiveWinsSpan bool
	// JitterHeld: the jitter arm ended on the healthy-link optimum with
	// FlipsSuppressed > 0 — hysteresis absorbed the transients.
	JitterHeld bool
}

// driftEstimator adapts a linkest.Estimator to the virtual timeline: the
// injected clock follows frame arrival times, and the cumulative wire-byte
// counter plays the role of the runtime's bytes-on-wire metric.
type driftEstimator struct {
	est   *linkest.Estimator
	now   time.Time
	total uint64
}

func newDriftEstimator(halfLifeMS float64) *driftEstimator {
	d := &driftEstimator{now: time.Unix(0, 0)}
	d.est = linkest.New(linkest.Config{
		HalfLife: time.Duration(halfLifeMS * float64(time.Millisecond)),
		Now:      func() time.Time { return d.now },
	})
	return d
}

// hook is the RunConfig.LinkEstimate adapter.
func (d *driftEstimator) hook(nominal costmodel.Environment) func(simnet.Timing, int64) (costmodel.Environment, bool) {
	return func(tm simnet.Timing, bytes int64) (costmodel.Environment, bool) {
		if bytes > 0 {
			d.total += uint64(bytes)
		}
		if t := time.Unix(0, 0).Add(time.Duration(tm.Arrive * float64(time.Millisecond))); t.After(d.now) {
			d.now = t
		}
		d.est.ObserveBytes(d.total)
		return d.est.Environment(nominal)
	}
}

// RunDrift runs the three arms and compares them.
func RunDrift(cfg DriftConfig) (*DriftComparison, error) {
	degradeSched := []simnet.BandwidthPhase{
		{Start: cfg.DegradeAtMS, BytesPerMS: cfg.DegradedBytesPerMS},
	}
	var jitterSched []simnet.BandwidthPhase
	for i := 0; i < cfg.JitterDips; i++ {
		at := cfg.JitterStartMS + float64(i)*cfg.JitterPeriodMS
		jitterSched = append(jitterSched,
			simnet.BandwidthPhase{Start: at, BytesPerMS: cfg.DegradedBytesPerMS},
			simnet.BandwidthPhase{Start: at + cfg.JitterDipMS, BytesPerMS: cfg.Image.LinkBytesPerMS})
	}

	arms := []struct {
		name      string
		schedule  []simnet.BandwidthPhase
		estimated bool
	}{
		{"static", degradeSched, false},
		{"live", degradeSched, true},
		{"jitter", jitterSched, true},
	}

	cmp := &DriftComparison{}
	for _, arm := range arms {
		f, err := newImageFixture(cfg.Image)
		if err != nil {
			return nil, fmt.Errorf("bench: drift: %w", err)
		}
		nominal := costmodel.Environment{
			SenderSpeed:   cfg.Image.ServerSpeed,
			ReceiverSpeed: cfg.Image.ClientSpeed,
			Bandwidth:     cfg.Image.LinkBytesPerMS,
			LatencyMS:     cfg.Image.LinkLatencyMS,
		}
		rc := RunConfig{
			Compiled:    f.c,
			SenderEnv:   interp.NewEnv(f.classes, f.builtins()),
			ReceiverEnv: interp.NewEnv(f.classes, f.builtins()),
			Sender:      simnet.NewHost("camera", cfg.Image.ServerSpeed),
			Receiver:    simnet.NewHost("client", cfg.Image.ClientSpeed),
			Link: &simnet.Link{
				BytesPerMS: cfg.Image.LinkBytesPerMS,
				LatencyMS:  cfg.Image.LinkLatencyMS,
				Schedule:   arm.schedule,
			},
			Frames:            cfg.Image.Frames,
			Workload:          imageWorkload(cfg.Image, ScenarioLarge),
			OverheadBytes:     64,
			Warmup:            10,
			Adaptive:          true,
			ReconfigAtSender:  true,
			Policy:            reconfig.LatencyFirst,
			FlipMargin:        cfg.FlipMargin,
			FlipConfirmations: cfg.FlipConfirmations,
			Nominal:           nominal,
		}
		var est *driftEstimator
		if arm.estimated {
			est = newDriftEstimator(cfg.HalfLifeMS)
			rc.LinkEstimate = est.hook(nominal)
		}
		res, err := Run(rc)
		if err != nil {
			return nil, fmt.Errorf("bench: drift %s: %w", arm.name, err)
		}
		if res.Explain == nil {
			return nil, fmt.Errorf("bench: drift %s: no plan selection ran", arm.name)
		}
		row := DriftArm{
			Name:            arm.name,
			FinalCut:        append([]int32(nil), res.Explain.Cut...),
			PlanSwitches:    res.PlanSwitches,
			FlipsSuppressed: res.Explain.FlipsSuppressed,
			KBPerFrame:      float64(res.Bytes) / float64(res.Frames) / 1024,
			MeanSpanMS:      res.MeanSpanMS,
		}
		if est != nil {
			row.MeasuredBW = est.est.Snapshot().BandwidthBytesPerMS
		}
		cmp.Arms = append(cmp.Arms, row)
	}

	static, live, jitter := cmp.Arms[0], cmp.Arms[1], cmp.Arms[2]
	sameCut := func(a, b []int32) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	cmp.StaticStale = true // by construction: no measurement reaches it
	cmp.LiveFlipped = !sameCut(live.FinalCut, static.FinalCut)
	cmp.LiveWinsSpan = live.MeanSpanMS < static.MeanSpanMS
	cmp.JitterHeld = sameCut(jitter.FinalCut, static.FinalCut) && jitter.FlipsSuppressed > 0
	return cmp, nil
}

// WriteDrift renders the per-arm table and the verdict lines the acceptance
// criteria check.
func WriteDrift(w io.Writer, cmp *DriftComparison) {
	rows := make([][]string, 0, len(cmp.Arms))
	for _, a := range cmp.Arms {
		bw := "-"
		if a.MeasuredBW > 0 {
			bw = fmt.Sprintf("%.0f", a.MeasuredBW)
		}
		rows = append(rows, []string{
			a.Name,
			fmt.Sprint(a.FinalCut),
			fmt.Sprintf("%d", a.PlanSwitches),
			fmt.Sprintf("%d", a.FlipsSuppressed),
			fmt.Sprintf("%.1f", a.KBPerFrame),
			fmt.Sprintf("%.1f", a.MeanSpanMS),
			bw,
		})
	}
	writeTable(w,
		"Link-drift arms (latency-first; bandwidth degrades mid-run)",
		[]string{"Arm", "Final cut", "Switches", "Suppressed", "KB/frame", "Span ms", "Est B/ms"},
		rows)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "live estimation flips after degradation: %v\n", cmp.LiveFlipped)
	fmt.Fprintf(w, "live beats stale-split latency: %v\n", cmp.LiveWinsSpan)
	fmt.Fprintf(w, "jitter suppressed without flipping: %v\n", cmp.JitterHeld)
}
