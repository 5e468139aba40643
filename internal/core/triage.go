package soundboost

import (
	"fmt"
	"math"
	"strings"

	"soundboost/internal/dataset"
	"soundboost/internal/dsp"
	"soundboost/internal/mathx"
	"soundboost/internal/triage"
)

// triageGPSOnsetSeconds bounds the post-onset region of a GPS attack
// whose windows train as anomalous. A spoof is acoustically and (for the
// cross-check features) telemetrically loud only while the KF state is
// being pulled; later windows look quiet again, and labelling them
// anomalous would smear the anomalous class across the benign manifold.
// Post-onset windows are excluded from training entirely — the
// flight-level policy (one escalated window escalates the flight) makes
// a hot onset sufficient.
const triageGPSOnsetSeconds = 2.0

// triageWindow is one screening window of a flight on the batch path:
// the primary mic's low-passed audio over [t0, t1) and the window's
// admitted telemetry rows.
type triageWindow struct {
	t0, t1 float64
	audio  []float64
	imu    []triage.IMUPoint
	gps    []triage.GPSPoint
}

// forEachTriageWindow enumerates the flight's screening windows exactly
// as the streaming engine decides them: the same window grid, the same
// per-mic causal low-pass on the primary mic, and the same half-open
// [t0, t1) selection of the flight's admitted rows. Mirroring the stream
// bit for bit keeps batch, streamed, and served triage decisions
// identical for the same flight. fn returns false to stop early.
func forEachTriageWindow(f *dataset.Flight, rows *flightRows, sig SignatureConfig, fn func(w triageWindow) bool) error {
	rec := f.Audio
	if rec == nil || rec.Samples() == 0 {
		return fmt.Errorf("soundboost: triage: flight %q has no audio", f.Name)
	}
	rate := rec.SampleRate
	if err := sig.ValidateForRate(rate); err != nil {
		return err
	}
	// The fast path filters only the primary mic — a quarter of the full
	// extractor's filtering work.
	audio := rec.Channels[0]
	if sig.LowPassHz > 0 && sig.LowPassHz < rate/2 {
		lp, err := dsp.NewLowPass(sig.LowPassHz, rate)
		if err != nil {
			return err
		}
		audio = lp.ProcessAll(audio)
	}

	win := sig.WindowSeconds
	hop := sig.HopSeconds
	total := int(win * rate)
	written := len(audio)
	for i := 0; ; i++ {
		t0 := float64(i) * hop
		start := int(t0 * rate)
		t1 := t0 + win
		if start+total > written || t1 > float64(written)/rate {
			return nil
		}
		imu, gps, _ := rows.between(t0, t1)
		if !fn(triageWindow{t0: t0, t1: t1, audio: audio[start : start+total], imu: imu, gps: gps}) {
			return nil
		}
	}
}

// AdmitIMU reports whether an IMU row may enter a window: its time,
// specific force and attitude are finite. AdmitGPS does the same for a
// GPS fix's time, position and velocity. The stream engine sheds rows
// at ingest by these rules and splitFlight applies them to a recorded
// flight, so both paths see the same windows.
func AdmitIMU(t float64, accel mathx.Vec3, att mathx.Quat) bool {
	q := att.W + att.X + att.Y + att.Z
	return finite(t) && accel.IsFinite() && finite(q)
}

// AdmitGPS reports whether a GPS fix may enter a window (see AdmitIMU).
func AdmitGPS(t float64, pos, vel mathx.Vec3) bool {
	return finite(t) && vel.IsFinite() && pos.IsFinite()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// screenFlight runs the triage tier over a whole flight. The flight
// fast-paths only when every window screens confident-benign; any
// unusable or doubtful window escalates. maxDist is the largest
// neighbour distance among benign-screened windows — the verification
// pass tightens the radius to just below it to force a flight off the
// fast path. rows is the flight's split, made inside the screen's span,
// for the full pipeline to reuse.
func (a *Analyzer) screenFlight(f *dataset.Flight) (benign bool, maxDist float64, rows *flightRows) {
	span := triageScreenTimer.Start()
	defer span.Stop()
	rows = splitFlight(f)
	benign = true
	windows := 0
	err := forEachTriageWindow(f, rows, a.Model.cfg.Signature, func(w triageWindow) bool {
		windows++
		d := a.ScreenWindow(w.audio, f.Audio.SampleRate, w.imu, w.gps)
		if !d.Benign {
			benign = false
			return false
		}
		if d.Distance > maxDist {
			maxDist = d.Distance
		}
		return true
	})
	if err != nil || windows == 0 {
		return false, maxDist, rows
	}
	return benign, maxDist, rows
}

// FastBenignReport is the cheap verdict emitted when the triage tier
// screens an entire flight benign. It is built identically on the
// batch, streaming, and served paths, so a screened flight's report is
// path-independent: cause "none", the default (audio+IMU) KF variant,
// and its calibrated threshold, with no per-window detector detail —
// the full pipeline never ran.
func FastBenignReport(flight string, a *Analyzer) Report {
	return Report{
		Flight:  flight,
		Cause:   CauseNone,
		GPSMode: a.GPSAudioIMU.Mode(),
		GPS:     GPSVerdict{Threshold: a.GPSAudioIMU.Threshold()},
	}
}

// WithoutTriage returns an analyzer identical to the receiver but with
// the screening tier detached — every flight takes the full pipeline.
// The receiver is unchanged (shallow clone, like WithGPSMargin); when
// no tier is attached the receiver itself is returned.
func (a *Analyzer) WithoutTriage() *Analyzer {
	if a.Triage == nil {
		return a
	}
	clone := *a
	clone.Triage = nil
	return &clone
}

// triageLabel assigns the training label for a window [t0, t1) of a
// flight with the given scenario. Only windows fully inside the attack
// region train as anomalous; windows straddling an attack edge are
// mixed content and dropped (include=false), as are GPS post-onset
// windows (neither cleanly benign nor usefully anomalous). An edge
// window labelled anomalous would plant an anomalous prototype deep in
// the benign manifold and poison the zero-anomalous-neighbour vote for
// ordinary benign windows.
func triageLabel(meta dataset.ScenarioMeta, t0, t1 float64) (anomalous, include bool) {
	if !meta.IsAttack() {
		return false, true
	}
	w := meta.Window
	switch {
	case strings.HasPrefix(meta.Kind, "gps-"): // every spoof mode, as dataset.Generate names it
		if t0 >= w.Start && t1 <= w.Start+triageGPSOnsetSeconds {
			return true, true
		}
		if (t1 > w.Start && t0 < w.End) || t0 >= w.End {
			return false, false
		}
		return false, true
	default:
		// IMU injection (and any future kind): anomalous when fully
		// inside the attack window, benign when fully outside it.
		if t0 >= w.Start && t1 <= w.End {
			return true, true
		}
		if t1 > w.Start && t0 < w.End {
			return false, false
		}
		return false, true
	}
}

// TrainTriage fits the screening tier from a labelled corpus — the same
// flights that train and calibrate the full pipeline, benign and
// attacked alike (an all-benign corpus yields a one-class model).
// Windows are labelled from scenario metadata: benign flights
// contribute benign windows, IMU attacks mark their whole attack window
// anomalous, GPS attacks mark only the spoof onset (and drop the quiet
// post-onset tail).
func TrainTriage(flights []*dataset.Flight, sig SignatureConfig, cfg triage.Config) (*triage.Model, error) {
	span := triageTrainTimer.Start()
	defer span.Stop()
	if len(cfg.Features.Bands) == 0 {
		cfg.Features.Bands = sig.Bands
	}
	var samples []triage.Sample
	for _, f := range flights {
		if f.Audio == nil || f.Audio.Samples() == 0 {
			continue
		}
		err := forEachTriageWindow(f, splitFlight(f), sig, func(w triageWindow) bool {
			if len(w.imu) == 0 {
				return true
			}
			if anom, include := triageLabel(f.Scenario, w.t0, w.t1); include {
				feat := cfg.Features.Features(w.audio, f.Audio.SampleRate, w.imu, w.gps)
				samples = append(samples, triage.Sample{Features: feat, Anomalous: anom})
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("soundboost: triage training on %q: %w", f.Name, err)
		}
	}
	return triage.Train(samples, cfg)
}

// VerifyTriage enforces the zero verdict-flip guarantee on a corpus: for
// every flight whose full-pipeline cause is not "none", the screening
// tier must escalate. Any violating flight has the benign radius
// tightened to just below its largest window distance, which flips that
// flight off the fast path without ever doing the reverse (Tighten is
// one-directional). Returns the fast-path / escalated flight counts
// after enforcement. An error means the guarantee cannot be enforced by
// radius alone (degenerate zero-distance windows) — callers should drop
// the tier rather than ship it.
func (a *Analyzer) VerifyTriage(flights []*dataset.Flight) (fastpath, escalated int, err error) {
	if a.Triage == nil {
		return 0, 0, fmt.Errorf("soundboost: VerifyTriage: no triage tier attached")
	}
	full := a.WithoutTriage()
	for _, f := range flights {
		// A flight the full pipeline flags, or cannot analyse, must not
		// fast-path.
		if report, err := full.Analyze(f); err == nil && report.Cause == CauseNone {
			continue
		}
		for {
			benign, maxDist, _ := a.screenFlight(f)
			if !benign {
				break
			}
			if maxDist <= 0 {
				return 0, 0, fmt.Errorf("soundboost: VerifyTriage: flight %q screens benign at zero distance", f.Name)
			}
			// One tighten flips the arg-max window: its distance now
			// exceeds the (possibly SNR-shrunk) radius.
			a.Triage.Tighten(maxDist * 0.999)
		}
	}
	for _, f := range flights {
		if benign, _, _ := a.screenFlight(f); benign {
			fastpath++
		} else {
			escalated++
		}
	}
	return fastpath, escalated, nil
}
