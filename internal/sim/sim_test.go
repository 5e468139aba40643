package sim

import (
	"math"
	"testing"

	"soundboost/internal/mathx"
)

func TestVehicleConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*VehicleConfig)
		wantOK bool
	}{
		{"default ok", func(c *VehicleConfig) {}, true},
		{"zero mass", func(c *VehicleConfig) { c.Mass = 0 }, false},
		{"negative inertia", func(c *VehicleConfig) { c.Inertia.Y = -1 }, false},
		{"zero arm", func(c *VehicleConfig) { c.ArmLength = 0 }, false},
		{"zero tau", func(c *VehicleConfig) { c.MotorTau = 0 }, false},
		{"zero thrust coeff", func(c *VehicleConfig) { c.ThrustCoeff = 0 }, false},
		{"max below min", func(c *VehicleConfig) { c.MaxMotorSpeed = 50 }, false},
		{"zero blades", func(c *VehicleConfig) { c.Blades = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultVehicleConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() err = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

func TestHoverMotorSpeedBalancesGravity(t *testing.T) {
	cfg := DefaultVehicleConfig()
	w := cfg.HoverMotorSpeed()
	totalThrust := float64(NumMotors) * cfg.MotorThrust(w)
	if math.Abs(totalThrust-cfg.Mass*gravity) > 1e-9 {
		t.Errorf("hover thrust %v != weight %v", totalThrust, cfg.Mass*gravity)
	}
	// Blade passing frequency should land near the paper's 200 Hz group.
	bpf := w / (2 * math.Pi) * float64(cfg.Blades)
	if bpf < 150 || bpf > 300 {
		t.Errorf("hover blade-passing frequency %v Hz outside the 200 Hz group", bpf)
	}
}

func TestMotorPositionsSymmetric(t *testing.T) {
	cfg := DefaultVehicleConfig()
	var sum mathx.Vec3
	for i := 0; i < NumMotors; i++ {
		sum = sum.Add(cfg.MotorPosition(i))
	}
	if sum.Norm() > 1e-12 {
		t.Errorf("motor positions not symmetric: sum %v", sum)
	}
	// Spin directions must cancel.
	var spin float64
	for i := 0; i < NumMotors; i++ {
		spin += MotorSpinDir(i)
	}
	if spin != 0 {
		t.Errorf("spin directions sum to %v, want 0", spin)
	}
}

func TestDynamicsFreeFall(t *testing.T) {
	cfg := DefaultVehicleConfig()
	cfg.MinMotorSpeed = 0
	cfg.LinearDrag = 0
	dyn, err := NewDynamics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := State{Att: mathx.IdentityQuat()}
	dt := 1.0 / 500
	for i := 0; i < 500; i++ { // one second, motors off
		s = dyn.Step(s, [NumMotors]float64{}, mathx.Vec3{}, dt)
	}
	// After 1 s of free fall: v ~ g, z ~ g/2.
	if math.Abs(s.Vel.Z-gravity) > 0.1 {
		t.Errorf("free-fall velocity %v, want ~%v", s.Vel.Z, gravity)
	}
	if math.Abs(s.Pos.Z-gravity/2) > 0.1 {
		t.Errorf("free-fall drop %v, want ~%v", s.Pos.Z, gravity/2)
	}
}

func TestDynamicsHoverEquilibrium(t *testing.T) {
	cfg := DefaultVehicleConfig()
	dyn, err := NewDynamics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hover := cfg.HoverMotorSpeed()
	s := State{Att: mathx.IdentityQuat()}
	for i := range s.MotorSpeed {
		s.MotorSpeed[i] = hover
	}
	cmd := [NumMotors]float64{hover, hover, hover, hover}
	dt := 1.0 / 500
	for i := 0; i < 2500; i++ { // five seconds
		s = dyn.Step(s, cmd, mathx.Vec3{}, dt)
	}
	if s.Pos.Norm() > 0.01 {
		t.Errorf("hover drifted %v m", s.Pos.Norm())
	}
	if s.AngVel.Norm() > 1e-9 {
		t.Errorf("hover picked up rotation %v", s.AngVel)
	}
}

func TestDynamicsYawTorqueFromSpinImbalance(t *testing.T) {
	cfg := DefaultVehicleConfig()
	dyn, err := NewDynamics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hover := cfg.HoverMotorSpeed()
	s := State{Att: mathx.IdentityQuat()}
	for i := range s.MotorSpeed {
		s.MotorSpeed[i] = hover
	}
	// Speed up the CCW pair, slow the CW pair: net reaction torque must yaw
	// the vehicle.
	cmd := [NumMotors]float64{hover * 1.05, hover * 1.05, hover * 0.95, hover * 0.95}
	dt := 1.0 / 500
	for i := 0; i < 250; i++ {
		s = dyn.Step(s, cmd, mathx.Vec3{}, dt)
	}
	if math.Abs(s.AngVel.Z) < 0.01 {
		t.Errorf("no yaw rate from spin imbalance: %v", s.AngVel)
	}
	if math.Abs(s.AngVel.X) > math.Abs(s.AngVel.Z)/10 || math.Abs(s.AngVel.Y) > math.Abs(s.AngVel.Z)/10 {
		t.Errorf("spin imbalance produced roll/pitch: %v", s.AngVel)
	}
}

func TestSpecificForceAtHover(t *testing.T) {
	s := State{Att: mathx.IdentityQuat(), Accel: mathx.Vec3{}}
	sf := s.SpecificForceBody()
	want := mathx.Vec3{Z: -gravity}
	if sf.Sub(want).Norm() > 1e-9 {
		t.Errorf("hover specific force %v, want %v", sf, want)
	}
}

func TestPIDProportional(t *testing.T) {
	p := PID{Kp: 2}
	if got := p.Update(1.5, 0.01); got != 3 {
		t.Errorf("P output = %v, want 3", got)
	}
}

func TestPIDIntegralAccumulates(t *testing.T) {
	p := PID{Ki: 1}
	var out float64
	for i := 0; i < 100; i++ {
		out = p.Update(1, 0.01)
	}
	if math.Abs(out-1.0) > 1e-9 {
		t.Errorf("I output after 1s of unit error = %v, want 1", out)
	}
}

func TestPIDIntegralClamp(t *testing.T) {
	p := PID{Ki: 1, IntLimit: 0.5}
	var out float64
	for i := 0; i < 1000; i++ {
		out = p.Update(1, 0.01)
	}
	if out > 0.5+1e-9 {
		t.Errorf("integral exceeded clamp: %v", out)
	}
}

func TestPIDOutputLimit(t *testing.T) {
	p := PID{Kp: 100, OutLimit: 1}
	if got := p.Update(5, 0.01); got != 1 {
		t.Errorf("clamped output = %v, want 1", got)
	}
	if got := p.Update(-5, 0.01); got < -1.001 {
		t.Errorf("clamped output = %v, want >= -1", got)
	}
}

func TestPIDReset(t *testing.T) {
	p := PID{Kp: 1, Ki: 1, Kd: 1}
	p.Update(1, 0.01)
	p.Update(2, 0.01)
	p.Reset()
	q := PID{Kp: 1, Ki: 1, Kd: 1}
	if got, want := p.Update(1, 0.01), q.Update(1, 0.01); got != want {
		t.Errorf("after Reset, Update = %v, fresh = %v", got, want)
	}
}

func TestWorldHoverHoldsPosition(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Seed = 3
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mission := HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 12}
	recs := w.Run(mission)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	// After settling, the vehicle must stay within 1.5 m of the hover point.
	var worst float64
	for _, r := range recs[len(recs)/2:] {
		if d := r.TruePos.Sub(mission.Point).Norm(); d > worst {
			worst = d
		}
	}
	if worst > 1.5 {
		t.Errorf("hover error %v m, want < 1.5", worst)
	}
}

func TestWorldHoverSurvivesWind(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Wind = GustyWind()
	cfg.Seed = 4
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mission := HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 12}
	recs := w.Run(mission)
	var worst float64
	for _, r := range recs[len(recs)/2:] {
		if d := r.TruePos.Sub(mission.Point).Norm(); d > worst {
			worst = d
		}
	}
	if worst > 4.0 {
		t.Errorf("hover error in gusts %v m, want < 4", worst)
	}
}

func TestWorldWaypointTracking(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Seed = 5
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mission := NewWaypointMission("test", mathx.Vec3{Z: -10}, []Waypoint{
		{Pos: mathx.Vec3{X: 10, Z: -10}, Speed: 3, HoldSeconds: 3},
	})
	recs := w.Run(mission)
	final := recs[len(recs)-1]
	if d := final.TruePos.Sub(mathx.Vec3{X: 10, Z: -10}).Norm(); d > 1.5 {
		t.Errorf("final position error %v m, want < 1.5", d)
	}
}

func TestWorldRecordsGroundTruthAccel(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Seed = 6
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := w.Run(HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 5})
	// In steady hover, true world-frame acceleration hovers near zero.
	var sum float64
	n := 0
	for _, r := range recs[len(recs)/2:] {
		sum += r.TrueAccel.Norm()
		n++
	}
	// Sensor noise drives small corrective actuation, so a real hover sits
	// around ~1 m/s^2 of jitter; divergence would show up far above this.
	if mean := sum / float64(n); mean > 2.0 {
		t.Errorf("mean hover acceleration %v m/s^2, want small", mean)
	}
}

func TestWorldConfigValidation(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.PhysicsRate = 0
	if _, err := NewWorld(cfg); err == nil {
		t.Error("zero physics rate accepted")
	}
	cfg = DefaultWorldConfig()
	cfg.ControlRate = cfg.PhysicsRate * 2
	if _, err := NewWorld(cfg); err == nil {
		t.Error("control rate above physics rate accepted")
	}
	cfg = DefaultWorldConfig()
	cfg.Vehicle.Mass = -1
	if _, err := NewWorld(cfg); err == nil {
		t.Error("invalid vehicle accepted")
	}
}

func TestWorldDeterministicWithSeed(t *testing.T) {
	run := func() []StepRecord {
		cfg := DefaultWorldConfig()
		cfg.Seed = 42
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 2})
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TruePos != b[i].TruePos || a[i].MotorSpeed != b[i].MotorSpeed {
			t.Fatalf("step %d differs between identical seeds", i)
		}
	}
}

func TestMissionSetpoints(t *testing.T) {
	h := HoverMission{Point: mathx.Vec3{X: 1, Z: -5}, Seconds: 10, Heading: 0.5}
	sp := h.Setpoint(3)
	if sp.Pos != h.Point || sp.Yaw != 0.5 {
		t.Errorf("hover setpoint = %+v", sp)
	}
	if h.Duration() != 10 || h.Name() != "hover" {
		t.Errorf("hover metadata wrong")
	}

	wm := NewWaypointMission("wm", mathx.Vec3{Z: -5}, []Waypoint{
		{Pos: mathx.Vec3{X: 6, Z: -5}, Speed: 3, HoldSeconds: 2},
		{Pos: mathx.Vec3{X: 6, Y: 6, Z: -5}, Speed: 3},
	})
	if got, want := wm.Duration(), 2.0+2+2; math.Abs(got-want) > 1e-9 {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	// Mid-leg setpoint moves along the leg.
	sp = wm.Setpoint(1)
	if sp.Pos.X <= 0 || sp.Pos.X >= 6 {
		t.Errorf("mid-leg X = %v, want in (0,6)", sp.Pos.X)
	}
	if sp.VelFF.Norm() == 0 {
		t.Error("no velocity feed-forward mid-leg")
	}
	// During hold, the setpoint parks at the waypoint.
	sp = wm.Setpoint(3)
	if sp.Pos != (mathx.Vec3{X: 6, Z: -5}) {
		t.Errorf("hold setpoint = %v", sp.Pos)
	}
	// Past the end, the setpoint stays at the last waypoint.
	sp = wm.Setpoint(100)
	if sp.Pos != (mathx.Vec3{X: 6, Y: 6, Z: -5}) {
		t.Errorf("post-mission setpoint = %v", sp.Pos)
	}
}

func TestStandardMissions(t *testing.T) {
	for variant := 0; variant < 3; variant++ {
		ms := StandardMissions(variant)
		if len(ms) != 6 {
			t.Fatalf("variant %d: %d missions, want 6", variant, len(ms))
		}
		names := map[string]bool{}
		for _, m := range ms {
			if m.Duration() <= 0 {
				t.Errorf("mission %q has non-positive duration", m.Name())
			}
			names[m.Name()] = true
		}
		if len(names) != 6 {
			t.Errorf("variant %d: duplicate mission names %v", variant, names)
		}
	}
}

func TestMissionByName(t *testing.T) {
	if _, err := MissionByName("square", 0); err != nil {
		t.Errorf("square mission not found: %v", err)
	}
	if _, err := MissionByName("nonexistent", 0); err == nil {
		t.Error("unknown mission accepted")
	}
}

func TestWindProcess(t *testing.T) {
	rngWind := NewWind(GustyWind(), newRand(7))
	var sum mathx.Vec3
	const n = 10000
	for i := 0; i < n; i++ {
		sum = sum.Add(rngWind.Step(0.01))
	}
	mean := sum.Scale(1.0 / n)
	want := GustyWind().Mean
	if mean.Sub(want).Norm() > 1.0 {
		t.Errorf("wind mean %v, want ~%v", mean, want)
	}
	calm := NewWind(CalmWind(), newRand(8))
	if v := calm.Step(0.01); v.Norm() != 0 {
		t.Errorf("calm wind = %v, want zero", v)
	}
	if v := calm.Current(); v.Norm() != 0 {
		t.Errorf("calm Current = %v, want zero", v)
	}
}

func TestWindByNameAndCycle(t *testing.T) {
	for i, name := range []string{"calm", "breezy", "gusty"} {
		w, err := WindByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if WindCycle(i) != w || WindCycle(i+3) != w {
			t.Errorf("WindCycle(%d) is not %s", i, name)
		}
	}
	if _, err := WindByName("stormy"); err == nil {
		t.Error("unknown wind condition accepted")
	}
}

func TestEstimatorTracksTruthInBenignFlight(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Seed = 9
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := w.Run(HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 10})
	var sumErr float64
	n := 0
	for _, r := range recs[len(recs)/2:] {
		sumErr += r.EstPos.Sub(r.TruePos).Norm()
		n++
	}
	if mean := sumErr / float64(n); mean > 1.5 {
		t.Errorf("mean estimation error %v m, want < 1.5", mean)
	}
}
