// Command mpbench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed:
//
//	mpbench -experiment all
//	mpbench -experiment table2 -frames 500
//	mpbench -experiment figure7 -seeds 5
//
// Experiments: table1, table2, table3, table4, figure7, figure8, ablation,
// models, richimage, channel, fanout, pareto, drift, claims.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"methodpart/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpbench:", err)
		os.Exit(1)
	}
}

// benchFlags bundles mpbench's flag set so the EXPERIMENTS.md drift guard
// (flags_doc_test.go) can enumerate exactly the flags the binary registers.
type benchFlags struct {
	fs         *flag.FlagSet
	experiment *string
	frames     *int
	seeds      *int
	asCSV      *bool
	plot       *bool
	batchBytes *int
	batchDelay *time.Duration
	subs       *string
}

// newBenchFlags declares every mpbench flag on a fresh flag set.
func newBenchFlags() *benchFlags {
	fs := flag.NewFlagSet("mpbench", flag.ContinueOnError)
	return &benchFlags{
		fs:         fs,
		experiment: fs.String("experiment", "all", "which experiment to run (table1|table2|table3|table4|figure7|figure8|ablation|models|richimage|channel|fanout|pareto|drift|claims|all)"),
		frames:     fs.Int("frames", 0, "override frames per run (0 = experiment default)"),
		seeds:      fs.Int("seeds", 0, "override number of perturbation seeds (0 = default 5)"),
		asCSV:      fs.Bool("csv", false, "emit tables as CSV instead of aligned text"),
		plot:       fs.Bool("plot", false, "also render figure experiments as ASCII charts"),
		batchBytes: fs.Int("batch-bytes", 0, "batched-run coalescing budget in bytes for the channel experiment (0 = 64KiB default)"),
		batchDelay: fs.Duration("batch-delay", 0, "batched-run linger window for the channel experiment (0 = none)"),
		subs:       fs.String("subs", "", "comma-separated subscriber counts for the fanout experiment (empty = 16,100,1000,10000)"),
	}
}

func run(args []string, w io.Writer) error {
	bf := newBenchFlags()
	if err := bf.fs.Parse(args); err != nil {
		return err
	}
	experiment := bf.experiment
	frames := bf.frames
	seeds := bf.seeds
	plot := bf.plot
	batchBytes := bf.batchBytes
	batchDelay := bf.batchDelay
	subs := bf.subs
	if *bf.asCSV {
		w = bench.CSVWriter{W: w}
	}

	imgCfg := bench.DefaultImageConfig()
	senCfg := bench.DefaultSensorConfig()
	if *frames > 0 {
		imgCfg.Frames = *frames
		senCfg.Frames = *frames
	}
	if *seeds > 0 {
		senCfg.Seeds = senCfg.Seeds[:min(*seeds, len(senCfg.Seeds))]
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	ran := false

	if all || wanted["table1"] {
		ran = true
		rows, err := bench.Table1()
		if err != nil {
			return err
		}
		bench.WriteTable1(w, rows)
	}
	if all || wanted["table2"] {
		ran = true
		rows, err := bench.Table2(imgCfg)
		if err != nil {
			return err
		}
		bench.WriteTable2(w, rows)
	}
	if all || wanted["table3"] {
		ran = true
		rows, err := bench.Table3(senCfg)
		if err != nil {
			return err
		}
		bench.WriteTable3(w, rows)
	}
	if all || wanted["table4"] {
		ran = true
		rows, err := bench.Table4(senCfg)
		if err != nil {
			return err
		}
		bench.WriteTable4(w, rows)
	}
	if all || wanted["figure7"] {
		ran = true
		pts, err := bench.Figure7(senCfg)
		if err != nil {
			return err
		}
		bench.WriteFigure7(w, pts)
		if *plot {
			bench.PlotFigure7(w, pts)
		}
	}
	if all || wanted["figure8"] {
		ran = true
		pts, err := bench.Figure8(senCfg)
		if err != nil {
			return err
		}
		bench.WriteFigure8(w, pts)
		if *plot {
			bench.PlotFigure8(w, pts)
		}
	}
	if all || wanted["ablation"] {
		ran = true
		rows, err := bench.Ablations(imgCfg)
		if err != nil {
			return err
		}
		bench.WriteAblations(w, rows)
	}
	if all || wanted["richimage"] {
		ran = true
		rows, err := bench.RichImage(imgCfg)
		if err != nil {
			return err
		}
		bench.WriteRichImage(w, rows)
	}
	if all || wanted["models"] {
		ran = true
		rows, err := bench.CompareModels(imgCfg)
		if err != nil {
			return err
		}
		bench.WriteModelComparison(w, rows)
	}
	if all || wanted["channel"] {
		ran = true
		chCfg := bench.DefaultChannelConfig()
		if *frames > 0 {
			chCfg.Frames = *frames
		}
		rows, stages, err := bench.ChannelExperiment(chCfg)
		if err != nil {
			return err
		}
		bench.WriteChannel(w, rows)
		bench.WriteChannelStages(w, stages)
		baCfg := bench.DefaultBatchConfig()
		if *frames > 0 {
			baCfg.Frames = *frames
		}
		if *batchBytes > 0 {
			baCfg.BatchBytes = *batchBytes
		}
		baCfg.BatchDelay = *batchDelay
		baRows, err := bench.BatchExperiment(baCfg)
		if err != nil {
			return err
		}
		bench.WriteBatch(w, baRows)
	}
	if all || wanted["fanout"] {
		ran = true
		foCfg := bench.DefaultFanoutConfig()
		if *frames > 0 {
			foCfg.Frames = *frames
		}
		if *subs != "" {
			counts, err := parseCounts(*subs)
			if err != nil {
				return fmt.Errorf("-subs: %w", err)
			}
			foCfg.Subs = counts
		}
		rows, err := bench.FanoutExperiment(foCfg)
		if err != nil {
			return err
		}
		bench.WriteFanout(w, rows)
	}
	if all || wanted["pareto"] {
		ran = true
		paCfg := bench.DefaultParetoConfig()
		if *frames > 0 {
			paCfg.Frames = *frames
		}
		cmp, err := bench.RunPareto(paCfg)
		if err != nil {
			return err
		}
		bench.WritePareto(w, cmp)
	}
	if all || wanted["drift"] {
		ran = true
		drCfg := bench.DefaultDriftConfig()
		if *frames > 0 {
			drCfg.Image.Frames = *frames
		}
		cmp, err := bench.RunDrift(drCfg)
		if err != nil {
			return err
		}
		bench.WriteDrift(w, cmp)
	}
	if all || wanted["claims"] {
		ran = true
		cl, err := bench.ComputeClaims(imgCfg, senCfg)
		if err != nil {
			return err
		}
		bench.WriteClaims(w, cl)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad subscriber count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
