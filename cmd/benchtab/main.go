// Command benchtab regenerates the paper's tables and figures from the
// simulated substrate and prints them as text.
//
// Usage:
//
//	benchtab -scale bench -run all
//	benchtab -scale paper -run table2
//	benchtab -run table1,fig6,importance
//
// Available runs: table1, table2, table3, imu, fig2, fig3, fig6, fig7,
// importance, window, families, interference, ablation, timing, rca,
// all.
//
// Observability:
//
//	benchtab -debug-addr :8080 ...          # live /debug/metrics + pprof
//
// Performance is measured by the end-to-end benchmark in bench/, not
// here (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"soundboost/internal/dataset"
	"soundboost/internal/experiments"
	"soundboost/internal/obs"
	"soundboost/internal/parallel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleName = flag.String("scale", "bench", "experiment scale: quick|bench|paper")
		runs      = flag.String("run", "all", "comma-separated experiment list")
		verbose   = flag.Bool("v", false, "stream progress")
		csvDir    = flag.String("csv", "", "directory to export figure data as CSV (empty = no export)")
		workers   = flag.Int("workers", 0, "worker-pool size for parallel stages (0 = GOMAXPROCS, 1 = serial)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/metrics and /debug/pprof on this address (enables the obs layer)")
	)
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr)
		if err != nil {
			return err
		}
		fmt.Printf("debug endpoint on http://%s/debug/metrics\n", addr)
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "bench":
		scale = experiments.BenchScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Printf("  > "+format+"\n", a...) }
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*runs, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	needLab := all
	for _, r := range []string{"table2", "table3", "imu", "fig6", "fig7", "importance", "interference", "ablation", "timing", "rca"} {
		if want[r] {
			needLab = true
		}
	}

	var lab *experiments.Lab
	if needLab {
		fmt.Printf("== building lab (%s scale) ==\n", scale.Name)
		var err error
		lab, err = experiments.NewLab(scale, experiments.WithLogf(logf))
		if err != nil {
			return err
		}
		fmt.Printf("lab ready in %.1fs: train MSE %.4f, val MSE %.4f, test MSE %.4f\n\n",
			lab.BuildSeconds, lab.TrainMSE, lab.ValMSE, lab.TestMSE)
	}

	section := func(name string, f func() error) error {
		if !all && !want[name] {
			return nil
		}
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
		return nil
	}

	if err := section("fig2", func() error {
		r, err := experiments.RunFig2(scale)
		if err != nil {
			return err
		}
		fmt.Print(r.String())
		if *csvDir != "" {
			rows := make([][]float64, len(r.SpectrumFreqs))
			for i := range rows {
				rows[i] = []float64{r.SpectrumFreqs[i], r.SpectrumMags[i]}
			}
			if err := writeCSV(*csvDir, "fig2_spectrum.csv", []string{"freq_hz", "magnitude"}, rows); err != nil {
				return err
			}
			for name, series := range r.Series {
				rows := make([][]float64, len(series.Time))
				for i := range rows {
					rows[i] = []float64{series.Time[i], series.BandAmp[i], series.AccelZ[i]}
				}
				if err := writeCSV(*csvDir, "fig2_"+name+".csv", []string{"time", "aero_amp", "accel_z"}, rows); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("fig3", func() error {
		r, err := experiments.RunFig3(scale)
		if err != nil {
			return err
		}
		fmt.Println("time-shift augmentation: window factor -> signature L2 distance from base")
		for i, f := range r.Factors {
			fmt.Printf("  %.1fx  %.3f\n", f, r.FeatureDistance[i])
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("table1", func() error {
		r, err := experiments.RunTable1(scale, logf)
		if err != nil {
			return err
		}
		fmt.Print(r.String())
		return nil
	}); err != nil {
		return err
	}

	if err := section("window", func() error {
		rows, err := experiments.RunWindowSweep(scale, nil, logf)
		if err != nil {
			return err
		}
		fmt.Println("signature window sweep (validation MSE):")
		for _, row := range rows {
			fmt.Printf("  %.2fs  %.4f\n", row.WindowSeconds, row.ValMSE)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("families", func() error {
		rows, err := experiments.RunModelFamilies(scale, logf)
		if err != nil {
			return err
		}
		fmt.Println("model family comparison (validation MSE):")
		for _, row := range rows {
			fmt.Printf("  %-8s %.4f\n", row.Kind, row.ValMSE)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("importance", func() error {
		rows, base, err := experiments.RunFrequencyImportance(lab)
		if err != nil {
			return err
		}
		fmt.Printf("frequency-group importance (baseline MSE %.4f):\n", base)
		for _, row := range rows {
			fmt.Printf("  remove %-14s MSE %.4f (%.2fx)\n", row.Group, row.MSE, row.Ratio)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("imu", func() error {
		r, err := experiments.RunIMUExperiment(lab, logf)
		if err != nil {
			return err
		}
		fmt.Print(r.String())
		return nil
	}); err != nil {
		return err
	}

	if err := section("fig6", func() error {
		r, err := experiments.RunFig6(lab)
		if err != nil {
			return err
		}
		fmt.Println(r.String())
		if *csvDir != "" {
			n := len(r.BenignHist.Counts)
			rows := make([][]float64, n)
			for i := 0; i < n; i++ {
				rows[i] = []float64{r.BenignHist.BinCenter(i), r.BenignHist.Density(i), r.AttackHist.Density(i)}
			}
			if err := writeCSV(*csvDir, "fig6_residuals.csv",
				[]string{"residual", "benign_density", "attack_density"}, rows); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("table2", func() error {
		r, err := experiments.RunTable2(lab, logf)
		if err != nil {
			return err
		}
		fmt.Print(r.String())
		return nil
	}); err != nil {
		return err
	}

	if err := section("fig7", func() error {
		r, err := experiments.RunFig7(lab)
		if err != nil {
			return err
		}
		if *csvDir != "" {
			rows := make([][]float64, len(r.Trace.Time))
			for i := range rows {
				rows[i] = []float64{
					r.Trace.Time[i],
					r.Trace.FusedVel[i].Z, r.Trace.GPSVel[i].Z,
					r.Trace.FusedPos[i].Z, r.Trace.RunningError[i],
				}
			}
			if err := writeCSV(*csvDir, "fig7_trace.csv",
				[]string{"time", "fused_vz", "gps_vz", "fused_z", "running_error"}, rows); err != nil {
				return err
			}
		}
		fmt.Printf("Fig 7 trace (spoof window [%.1f, %.1f), detected=%v at t=%.1f):\n",
			r.SpoofWindow[0], r.SpoofWindow[1], r.Attacked, r.DetectionTime)
		fmt.Printf("%8s %10s %10s %10s %10s\n", "t", "fused vz", "gps vz", "fused z", "run err")
		stride := len(r.Trace.Time) / 24
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(r.Trace.Time); i += stride {
			fmt.Printf("%8.1f %10.2f %10.2f %10.2f %10.2f\n",
				r.Trace.Time[i], r.Trace.FusedVel[i].Z, r.Trace.GPSVel[i].Z,
				r.Trace.FusedPos[i].Z, r.Trace.RunningError[i])
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("table3", func() error {
		r, err := experiments.RunTable3(lab, logf)
		if err != nil {
			return err
		}
		fmt.Print(r.String())
		return nil
	}); err != nil {
		return err
	}

	if err := section("interference", func() error {
		r, err := experiments.RunRealWorldInterference(lab, logf)
		if err != nil {
			return err
		}
		fmt.Println("real-world sound interference (prediction MSE change):")
		for _, row := range r.Rows {
			fmt.Printf("  %-14s at %.1fm: %+.1f%%\n", row.Kind, row.Distance, row.MSEChangePc)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := section("ablation", func() error {
		r, err := experiments.RunKFAblation(lab, logf)
		if err != nil {
			return err
		}
		fmt.Print(r.String())
		return nil
	}); err != nil {
		return err
	}

	if err := section("timing", func() error {
		r, err := experiments.RunTiming(lab)
		if err != nil {
			return err
		}
		fmt.Printf("signature generation: %.1f%% of flight time\n", 100*r.SignatureSecondsPerFlightSecond)
		fmt.Printf("IMU RCA stage: %.2fs per flight; GPS RCA stage: %.2fs per flight\n",
			r.IMUDetectSeconds, r.GPSDetectSeconds)
		return nil
	}); err != nil {
		return err
	}

	if err := section("rca", func() error {
		outcomes, err := experiments.RunEndToEndRCA(lab, logf)
		if err != nil {
			return err
		}
		fmt.Println("end-to-end RCA attribution:")
		for _, o := range outcomes {
			fmt.Printf("  %-20s true=%-16s attributed=%s\n", o.Flight, o.TrueKind, o.Cause)
		}
		return nil
	}); err != nil {
		return err
	}

	return nil
}

// writeCSV writes one figure-data table under dir.
func writeCSV(dir, name string, header []string, rows [][]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dataset.WriteSeriesCSV(f, header, rows); err != nil {
		return err
	}
	fmt.Printf("  (wrote %s)\n", filepath.Join(dir, name))
	return f.Close()
}
