package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"soundboost/api"
	"soundboost/internal/dataset"
	"soundboost/internal/httpretry"
)

// runPush is the client side of `soundboost serve`: it sends a recorded
// flight to a running service — in one shot (POST /v1/flights) or
// chunked through a streaming session — and prints the returned verdict
// in exactly the format of `soundboost rca`, so the two outputs diff
// clean when the service is healthy. Progress goes to stderr.
//
// The client is fault-tolerant by default: transient failures
// (connection resets, 429 backpressure, 5xx) are retried with
// exponential backoff, and because session chunks carry sequence
// numbers, a chunk resent after a lost ack is acknowledged as a
// duplicate rather than double-published. Against a `serve -journal`
// server this rides through a kill-and-restart mid-upload: the retry
// budget spans the restart, the recovered session still holds every
// acknowledged chunk, and the upload resumes where it left off.
func runPush(args []string) error {
	fs := flag.NewFlagSet("push", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8713", "service base URL")
		flightPath = fs.String("flight", "", "flight to push (.sbf)")
		mode       = fs.String("mode", "batch", "batch (one-shot upload) or session (chunked streaming)")
		frameSec   = fs.Float64("frame", 0.05, "audio frame length in seconds (session mode)")
		chunkSec   = fs.Float64("chunk", 2, "flight seconds per frames request (session mode, 0 = single request)")
		retries    = fs.Int("retries", 8, "max retries per request for transient failures")
		retryBase  = fs.Duration("retry-base", 200*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
		pace       = fs.Duration("pace", 0, "sleep between frames requests (session mode); paces the upload like a live source so mid-flight outages land inside it")
	)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	if *flightPath == "" {
		return fmt.Errorf("-flight is required")
	}
	flight, err := dataset.LoadFile(*flightPath)
	if err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	client := httpretry.New(nil, *retries, *retryBase, time.Now().UnixNano())
	client.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

	var wire api.Report
	switch *mode {
	case "batch":
		wire, err = pushBatch(client, base, *flightPath)
	case "session":
		wire, err = pushSession(client, base, flight, *frameSec, *chunkSec, *pace)
	default:
		return fmt.Errorf("unknown -mode %q (want batch or session)", *mode)
	}
	if err != nil {
		return err
	}

	report := wire.ToCore()
	fmt.Print(report.String())
	if flight.Scenario.IsAttack() {
		fmt.Printf("  (ground truth: %s during [%.1f, %.1f))\n",
			flight.Scenario.Kind, flight.Scenario.Window.Start, flight.Scenario.Window.End)
	} else {
		fmt.Println("  (ground truth: benign)")
	}
	return nil
}

// pushBatch uploads the raw .sbf file for one-shot batch RCA. The file
// is read into memory so a retried upload resends identical bytes.
func pushBatch(client *httpretry.Client, base, path string) (api.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return api.Report{}, err
	}
	var out api.FlightResponse
	if err := client.Do("POST", base+"/v1/flights", raw, &out); err != nil {
		return api.Report{}, err
	}
	fmt.Fprintf(os.Stderr, "batch analysis took %.2f s server-side\n", out.ElapsedSeconds)
	return out.Report, nil
}

// flightDuration is the flight's end time across audio and telemetry.
func flightDuration(f *dataset.Flight) float64 {
	d := float64(f.Audio.Samples()) / f.Audio.SampleRate
	if n := len(f.Telemetry); n > 0 && f.Telemetry[n-1].Time > d {
		d = f.Telemetry[n-1].Time
	}
	return d
}

// pushSession streams the flight through a session: create, feed
// sequence-numbered frame batches, read the final report.
func pushSession(client *httpretry.Client, base string, flight *dataset.Flight, frameSec, chunkSec float64, pace time.Duration) (api.Report, error) {
	var created api.SessionResponse
	body, err := json.Marshal(api.SessionRequest{
		Flight:       flight.Name,
		SampleRateHz: flight.Audio.SampleRate,
	})
	if err != nil {
		return api.Report{}, err
	}
	if err := client.Do("POST", base+"/v1/sessions", body, &created); err != nil {
		return api.Report{}, err
	}
	fmt.Fprintf(os.Stderr, "session %s open\n", created.ID)

	if chunkSec <= 0 {
		// "Single request" is spelled as a chunk covering the whole flight;
		// ChunkFlight itself rejects non-positive sizes.
		chunkSec = flightDuration(flight) + 1
	}
	reqs, err := api.ChunkFlight(flight, frameSec, chunkSec)
	if err != nil {
		return api.Report{}, err
	}
	sessURL := base + "/v1/sessions/" + created.ID
	total, dups := 0, 0
	for i, r := range reqs {
		if pace > 0 && i > 0 {
			time.Sleep(pace)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return api.Report{}, err
		}
		var resp api.FramesResponse
		if err := client.Do("POST", sessURL+"/frames", raw, &resp); err != nil {
			return api.Report{}, fmt.Errorf("frames %d/%d: %w", i+1, len(reqs), err)
		}
		total += resp.Accepted
		if resp.Duplicate {
			dups++
		}
	}
	if dups > 0 {
		fmt.Fprintf(os.Stderr, "%d chunk(s) acknowledged as duplicates (idempotent resend)\n", dups)
	}
	fmt.Fprintf(os.Stderr, "streamed %d messages in %d requests; waiting for verdict\n", total, len(reqs))
	var report api.Report
	if err := client.Do("GET", sessURL+"/report", nil, &report); err != nil {
		return api.Report{}, err
	}
	return report, nil
}
