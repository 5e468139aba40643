package sweep

import (
	"encoding/json"
	"fmt"
	"time"

	"soundboost/api"
	"soundboost/internal/dataset"
	"soundboost/internal/httpretry"
)

// runTrial drives one grid cell's flight through a live server over
// real HTTP: create a session, push the chunked frame stream, wait for
// the terminal state, fetch the report, and fold everything into the
// trial's record. Sessions are labelled "sweep/trial-NNNN" so the
// server's per-group metrics attribute them to the sweep workload.
func (c *Config) runTrial(base string, idx int, p Params, f *dataset.Flight) (Record, error) {
	rec := Record{
		SchemaVersion: SchemaVersion,
		Trial:         idx,
		Flight:        f.Name,
		Params:        p,
		Truth: Truth{
			Attack:       f.Scenario.IsAttack(),
			Kind:         f.Scenario.Kind,
			StartSeconds: f.Scenario.Window.Start,
			EndSeconds:   f.Scenario.Window.End,
		},
	}

	// Data path and status polling use separate retry clients (the
	// chaos soak's split): poll counts depend on engine drain timing,
	// and must not contaminate the data-path retry count the record
	// reports. Seeds derive from the master seed and trial index, so
	// backoff draws are reproducible even when retries do happen.
	client := httpretry.New(nil, 8, 100*time.Millisecond, c.Seed+int64(idx)*2+1)
	poll := httpretry.New(nil, 8, 100*time.Millisecond, c.Seed+int64(idx)*2+2)

	reqs, err := api.ChunkFlight(f, p.FrameSeconds, p.ChunkSeconds)
	if err != nil {
		return rec, fmt.Errorf("sweep: trial %d: chunk: %w", idx, err)
	}
	rec.Chunks = len(reqs)

	var created api.SessionResponse
	body, err := json.Marshal(api.SessionRequest{
		Flight:       fmt.Sprintf("sweep/trial-%04d", idx),
		SampleRateHz: f.Audio.SampleRate,
	})
	if err != nil {
		return rec, err
	}
	if err := client.Do("POST", base+"/v1/sessions", body, &created); err != nil {
		return rec, fmt.Errorf("sweep: trial %d: create session: %w", idx, err)
	}
	sessURL := base + "/v1/sessions/" + created.ID

	phase := phaseClock(c.Timings)
	for i, r := range reqs {
		raw, err := json.Marshal(r)
		if err != nil {
			return rec, err
		}
		var resp api.FramesResponse
		if err := client.Do("POST", sessURL+"/frames", raw, &resp); err != nil {
			return rec, fmt.Errorf("sweep: trial %d: frames %d/%d: %w", idx, i+1, len(reqs), err)
		}
	}
	phase.mark("push")

	// Wait for the terminal state; the last chunk carried Close, so the
	// session drains to done (or failed) on its own.
	var status api.SessionStatus
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if err := poll.Do("GET", sessURL+"/status", nil, &status); err != nil {
			return rec, fmt.Errorf("sweep: trial %d: status: %w", idx, err)
		}
		if status.State == api.SessionDone || status.State == api.SessionFailed {
			break
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("sweep: trial %d: session %s stuck in state %q", idx, created.ID, status.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	phase.mark("drain")
	if status.State == api.SessionFailed {
		return rec, fmt.Errorf("sweep: trial %d: session failed: %s", idx, status.FailCause)
	}
	rec.Shed = status.Shed

	var report api.Report
	if err := client.Do("GET", sessURL+"/report", nil, &report); err != nil {
		return rec, fmt.Errorf("sweep: trial %d: report: %w", idx, err)
	}
	phase.mark("report")

	rec.Verdict = verdictFrom(report)
	rec.Correct = rec.Verdict.Cause == truthFamily(rec.Truth.Kind)
	rec.Retries = client.Retries()
	rec.PhaseSeconds = phase.seconds
	return rec, nil
}

// verdictFrom folds the wire report into the record's verdict.
// DetectionSeconds is the earliest flagged stage's time: the sweep's
// latency measure is "when did RCA first know", whichever sensor
// tripped first.
func verdictFrom(r api.Report) Verdict {
	v := Verdict{
		Cause:       r.Cause,
		IMUAttacked: r.IMU.Attacked,
		GPSAttacked: r.GPS.Attacked,
		GPSMode:     r.GPSMode,
		PeakError:   r.GPS.PeakError,
		Threshold:   r.GPS.Threshold,
	}
	switch {
	case r.IMU.Attacked && r.GPS.Attacked:
		v.DetectionSeconds = r.IMU.DetectionSeconds
		if r.GPS.DetectionSeconds < v.DetectionSeconds {
			v.DetectionSeconds = r.GPS.DetectionSeconds
		}
	case r.IMU.Attacked:
		v.DetectionSeconds = r.IMU.DetectionSeconds
	case r.GPS.Attacked:
		v.DetectionSeconds = r.GPS.DetectionSeconds
	}
	return v
}

// phases measures per-phase wall time when enabled; disabled it stays
// nil everywhere, keeping records free of nondeterministic fields.
type phases struct {
	seconds map[string]float64
	last    time.Time
}

func phaseClock(enabled bool) *phases {
	if !enabled {
		return &phases{}
	}
	return &phases{seconds: map[string]float64{}, last: time.Now()}
}

// mark closes the current phase under the given name.
func (p *phases) mark(name string) {
	if p.seconds == nil {
		return
	}
	now := time.Now()
	p.seconds[name] = now.Sub(p.last).Seconds()
	p.last = now
}
