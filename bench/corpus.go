package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/experiments"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/sim"
)

// corpusVersion names the generation recipe below. It is part of the
// cache directory name, so changing the recipe never reuses stale files.
const corpusVersion = "corpus-v1"

// flightSpec is one flight of the corpus: a stable name (the cache key
// and the report label) and the simulation that produces it.
type flightSpec struct {
	name string
	gen  func() (*dataset.Flight, error)
}

// recipe generates every flight at one experiments.Scale. The benchmark
// runs at BenchScale (16 kHz four-mic audio, 250 Hz IMU, the paper's
// frequency layout); the smoke test at QuickScale.
type recipe struct{ scale experiments.Scale }

// Corpus groups. The set-up group is the training and calibration data
// of the analyzer — the lab recipe of internal/experiments, fixed
// across seeds because a deployment trains once per airframe. The offline group is the paper's evaluation
// corpus; the pool holds the served workloads' distinct flights. Seeds
// choose order and traffic over these flights.
type corpus struct {
	recipe
	dir                                   string
	train, calib, gpsCalib, triageAttacks []*dataset.Flight
	// fingerprint hashes every loaded flight's cache bytes in load order;
	// workloads fold their seeded schedule into it.
	fingerprint hash.Hash
}

// Pool layout: the first poolBenign flights are clean, the rest attacks.
const poolBenign = 6

// Set-up corpus sizes. The lab trains on 18 flights (plus 3 for
// validation) and calibrates the GPS detectors on 8 periods; a set-up
// that large takes ~9 s on 2 CPUs, and three of them per run do not fit
// the benchmark's time budget. Three training flights, no validation
// flight and four GPS periods keep the calibration set — which decides
// triage and false alarms — at the lab's eight full-length flights, and
// the analyzer still screens every benign evaluation flight onto the
// fast path with no false alarm. Shortening the calibration flights
// instead sent nine benign flights past the screen.
const (
	setupTrain    = 3
	setupCalib    = 8
	setupGPSCalib = 4
)

func (r recipe) setupSpecs() (train, calib, gpsCalib, attacks []flightSpec) {
	s := r.scale
	for i := 0; i < setupTrain; i++ {
		m := r.trainingMissions(i)[i%6]
		train = append(train, r.simSpec(fmt.Sprintf("train-%02d-%s", i, m.Name()), m, s.Seed+100+int64(i)*7, windCycle(i)))
	}
	for i := 0; i < setupCalib; i++ {
		m := r.trainingMissions(i + 2)[i%6]
		calib = append(calib, r.simSpec(fmt.Sprintf("calib-%02d-%s", i, m.Name()), m, s.Seed+500+int64(i)*13, windCycle(i)))
	}
	for i := 0; i < setupGPSCalib; i++ {
		mission := "hover"
		if i%2 == 1 {
			mission = "square"
		}
		p := experiments.PeriodSpec{
			Index:    i,
			Seed:     s.Seed + 700 + int64(i)*29,
			Duration: s.GPSPeriodMin + float64(i%3)/2*(s.GPSPeriodMax-s.GPSPeriodMin),
			Mission:  mission,
		}
		gpsCalib = append(gpsCalib, periodSpec(s, fmt.Sprintf("gps-calib-%02d", i), p))
	}
	// One attack flight per family, as the lab's triage tier trains on.
	seen := map[attack.IMUBiasMode]bool{}
	for _, spec := range s.IMUFlights() {
		if spec.Attack && !seen[spec.Mode] {
			seen[spec.Mode] = true
			attacks = append(attacks, imuSpec(s, imuName(spec), spec))
		}
	}
	for _, p := range s.GPSPeriods() {
		if p.Attack {
			attacks = append(attacks, periodSpec(s, periodName(p), p))
			break
		}
	}
	return train, calib, gpsCalib, attacks
}

// evalSpecs is the paper's §IV evaluation corpus: the IMU experiment
// flights (benign incl. one low-battery hover, side-swing and accel-DoS
// attacks) and the Tab. II GPS periods (benign and drift).
func (r recipe) evalSpecs() []flightSpec {
	var out []flightSpec
	for _, s := range r.scale.IMUFlights() {
		out = append(out, imuSpec(r.scale, imuName(s), s))
	}
	for _, p := range r.scale.GPSPeriods() {
		out = append(out, periodSpec(r.scale, periodName(p), p))
	}
	return out
}

// poolSpecs are the served workloads' distinct flights, 10–15 s each:
// one clean flight per mission family of sim.StandardMissions, then one
// side-swing, one accel-DoS and one GPS-drift attack.
func (r recipe) poolSpecs() []flightSpec {
	var out []flightSpec
	for k := 0; k < poolBenign; k++ {
		m := sim.StandardMissions(k)[k]
		secs := 10 + 5*math.Mod(float64(k)*0.618034, 1)
		out = append(out, r.simSpec("pool-"+m.Name(), clipped{m, secs}, 41000+int64(k)*31, windCycle(k)))
	}
	short := r.scale
	short.IMUFlightSeconds = 15
	short.IMUAttackSeconds = 8
	for i, mode := range []attack.IMUBiasMode{attack.IMUSideSwing, attack.IMUAccelDoS} {
		s := experiments.IMUSpec{
			Index: i, Attack: true, Mode: mode, Seed: 42000 + int64(i)*23,
			Window: attack.Window{Start: 4, End: 12},
		}
		out = append(out, imuSpec(short, "pool-imu-"+string(mode), s))
	}
	drift := attack.Window{Start: 2, End: 14}
	out = append(out, periodSpec(r.scale, "pool-gps-drift", experiments.PeriodSpec{
		Index: 2, Attack: true, Seed: 43000, Duration: 15, Window: drift,
		Offset: mathx.Vec3{X: 0.8, Y: 0.6}.Scale(6 * (drift.End - drift.Start)), Mission: "hover",
	}))
	return out
}

// clipped flies the first seconds of a mission.
type clipped struct {
	sim.Mission
	seconds float64
}

func (c clipped) Duration() float64 { return c.seconds }

func (r recipe) simSpec(name string, m sim.Mission, seed int64, wind sim.WindConfig) flightSpec {
	return flightSpec{name, func() (*dataset.Flight, error) {
		return dataset.Generate(r.genConfig(m, seed, wind))
	}}
}

func imuSpec(s experiments.Scale, name string, spec experiments.IMUSpec) flightSpec {
	return flightSpec{name, func() (*dataset.Flight, error) { return s.GenerateIMUFlight(spec) }}
}

func periodSpec(s experiments.Scale, name string, p experiments.PeriodSpec) flightSpec {
	return flightSpec{name, func() (*dataset.Flight, error) { return s.GeneratePeriod(p) }}
}

func imuName(s experiments.IMUSpec) string {
	name := fmt.Sprintf("imu-%v-%d", s.Attack, s.Index)
	if s.LowBattery {
		name += "-lowbatt"
	}
	return name
}

func periodName(p experiments.PeriodSpec) string { return fmt.Sprintf("gps-%v-%d", p.Attack, p.Index) }

// genConfig, windCycle and trainingMissions reproduce the lab recipe of
// internal/experiments (unexported there) so the set-up group matches
// the corpus experiments.NewLab trains on.
func (r recipe) genConfig(mission sim.Mission, seed int64, wind sim.WindConfig) dataset.GenConfig {
	s := r.scale
	cfg := dataset.DefaultGenConfig(mission, seed)
	cfg.World.PhysicsRate = s.PhysicsRate
	cfg.World.ControlRate = s.ControlRate
	cfg.World.IMU.SampleRate = s.IMURate
	cfg.World.Controller.MaxVel = s.MaxVel
	cfg.World.Wind = wind
	cfg.Synth.SampleRate = s.AudioRate
	cfg.Synth.MechFreq = s.MechFreq
	cfg.Synth.AeroFreq = s.AeroFreq
	return cfg
}

func windCycle(i int) sim.WindConfig {
	switch i % 3 {
	case 1:
		return sim.BreezyWind()
	case 2:
		return sim.GustyWind()
	default:
		return sim.CalmWind()
	}
}

func (r recipe) trainingMissions(variant int) []sim.Mission {
	alt := -8.0 - float64(variant%3)*2
	leg := 6.0 + float64(variant%3)*2
	v := mathx.Clamp(1.5+float64(variant%3), 1, r.scale.MaxVel)
	wp := func(name string, pts ...sim.Waypoint) sim.Mission {
		return sim.NewWaypointMission(name, mathx.Vec3{Z: alt}, pts)
	}
	return []sim.Mission{
		sim.HoverMission{Point: mathx.Vec3{Z: alt}, Seconds: 22},
		wp("column",
			sim.Waypoint{Pos: mathx.Vec3{Z: alt - 5}, Speed: v, HoldSeconds: 2},
			sim.Waypoint{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 2}),
		wp("dash",
			sim.Waypoint{Pos: mathx.Vec3{X: leg * 1.5, Z: alt}, Speed: v, HoldSeconds: 2},
			sim.Waypoint{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 2}),
		wp("square",
			sim.Waypoint{Pos: mathx.Vec3{X: leg, Z: alt}, Speed: v, HoldSeconds: 1},
			sim.Waypoint{Pos: mathx.Vec3{X: leg, Y: leg, Z: alt}, Speed: v, HoldSeconds: 1},
			sim.Waypoint{Pos: mathx.Vec3{Y: leg, Z: alt}, Speed: v, HoldSeconds: 1},
			sim.Waypoint{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 1}),
		wp("sweep",
			sim.Waypoint{Pos: mathx.Vec3{X: leg, Z: alt}, Speed: v},
			sim.Waypoint{Pos: mathx.Vec3{X: leg, Y: leg / 2, Z: alt}, Speed: v / 2},
			sim.Waypoint{Pos: mathx.Vec3{Y: leg / 2, Z: alt}, Speed: v},
			sim.Waypoint{Pos: mathx.Vec3{Z: alt}, Speed: v / 2, HoldSeconds: 2}),
		wp("circuit",
			sim.Waypoint{Pos: mathx.Vec3{X: leg, Y: -leg / 2, Z: alt - 2}, Speed: v},
			sim.Waypoint{Pos: mathx.Vec3{X: leg / 2, Y: leg, Z: alt}, Speed: v},
			sim.Waypoint{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 2}),
	}
}

// loadCorpus simulates and caches any flight of the recipe missing from
// cacheDir — every group, so no later workload pays for simulation — and
// loads the set-up group. Workloads load their own group with loadEval
// or loadPool once set-up is done and the set-up group is released.
func loadCorpus(cacheDir string, scale experiments.Scale) (*corpus, error) {
	c := &corpus{
		recipe:      recipe{scale},
		dir:         filepath.Join(cacheDir, corpusVersion+"-"+scale.Name),
		fingerprint: sha256.New(),
	}
	train, calib, gpsCalib, attacks := c.setupSpecs()
	var all []flightSpec
	for _, g := range [][]flightSpec{train, calib, gpsCalib, attacks, c.evalSpecs(), c.poolSpecs()} {
		all = append(all, g...)
	}
	if err := fillCache(c.dir, all); err != nil {
		return nil, err
	}
	for _, g := range []struct {
		dst   *[]*dataset.Flight
		specs []flightSpec
	}{{&c.train, train}, {&c.calib, calib}, {&c.gpsCalib, gpsCalib}, {&c.triageAttacks, attacks}} {
		var err error
		if *g.dst, err = c.load(g.specs); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// releaseSetup drops the set-up group once the analyzer is built.
func (c *corpus) releaseSetup() {
	c.train, c.calib, c.gpsCalib, c.triageAttacks = nil, nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

func (c *corpus) loadEval() ([]*dataset.Flight, error) { return c.load(c.evalSpecs()) }
func (c *corpus) loadPool() ([]*dataset.Flight, error) { return c.load(c.poolSpecs()) }

// load reads cached flights, folding their bytes into the fingerprint.
func (c *corpus) load(specs []flightSpec) ([]*dataset.Flight, error) {
	var flights []*dataset.Flight
	for _, s := range specs {
		raw, err := os.ReadFile(filepath.Join(c.dir, s.name+cacheExt))
		if err != nil {
			return nil, err
		}
		f, err := readCachedFlight(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("bench: cached flight %s: %w", s.name, err)
		}
		c.fingerprint.Write(raw)
		flights = append(flights, f)
	}
	return flights, nil
}

const cacheExt = ".flight"

// fillCache simulates every spec whose cache file is missing, two at a
// time. Each flight passes through the .sbf codec first (float32
// audio), exactly as a recording uploaded to POST /v1/flights does, so
// every path of a run sees the same samples. Files land by rename, so an
// interrupted run leaves no torn flight.
func fillCache(dir string, specs []flightSpec) error {
	var missing []flightSpec
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.name] {
			continue
		}
		seen[s.name] = true
		if _, err := os.Stat(filepath.Join(dir, s.name+cacheExt)); err != nil {
			missing = append(missing, s)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: corpus cache: %w", err)
	}
	logf("simulating %d flight(s) into %s", len(missing), dir)
	_, err := parallel.MapErr(2, len(missing), func(i int) (struct{}, error) {
		s := missing[i]
		raw, err := s.gen()
		if err != nil {
			return struct{}{}, fmt.Errorf("bench: simulate %s: %w", s.name, err)
		}
		raw.Name = s.name
		var sbf, out bytes.Buffer
		if err := raw.Save(&sbf); err != nil {
			return struct{}{}, err
		}
		f, err := dataset.Load(&sbf)
		if err != nil {
			return struct{}{}, err
		}
		if err := writeCachedFlight(&out, f); err != nil {
			return struct{}{}, err
		}
		path := filepath.Join(dir, s.name+cacheExt)
		tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
		if err := os.WriteFile(tmp, out.Bytes(), 0o644); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, os.Rename(tmp, path)
	})
	return err
}
